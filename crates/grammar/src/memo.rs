//! Cross-rank grammar memoization.
//!
//! SPMD traces are near-identical across ranks — the exact redundancy the
//! inter-process merge (paper Section 2.6) exploits *after* every rank has
//! already paid full Sequitur construction cost. This module moves the
//! dedup in front of that cost: ranks whose global-id sequences are
//! byte-for-byte equal share one grammar build, so construction scales
//! with the number of *unique* sequences instead of the rank count.
//!
//! The dedupe is `siesta_hash::first_seen`, the one the other dedupes of
//! the pipeline call too, and it keeps their determinism contract
//! (DESIGN.md §10):
//!
//! * Unique sequences are discovered in **first-seen rank order** — the
//!   dedup index is a map, but the build list is the order each sequence
//!   first appears in, so neither hashing nor thread scheduling can
//!   reorder it.
//! * Duplicates **share** the first-seen build by reference (`Arc`).
//!   `Sequitur` is a pure function of its input sequence, so the shared
//!   grammar is bit-identical to rebuilding — memoization on vs. off
//!   cannot change a single output bit (this module's tests compare
//!   against the plain per-rank build).
//!
//! Hit rates are observable as `grammar.memo.hits` (ranks served by a
//! shared build) against `grammar.memo.unique` (grammars actually built).

use std::sync::Arc;

use siesta_hash::{first_seen, FirstSeen};

use crate::grammar::Grammar;
use crate::sequitur::Sequitur;

/// Small-work guard: fan out only when the grammars to build, cluster,
/// merge or lift carry enough symbols to amortize the pool region
/// hand-off. Shared by this module, clustering, the main-rule merge and
/// the trace crate's grammar lift.
pub const MIN_SYMBOLS_TO_FAN_OUT: usize = 8192;

/// Build one grammar per rank sequence. With `memoize`, duplicate
/// sequences are content-deduped first and each unique sequence is built
/// once (fanning out across the worker pool), then shared by every rank
/// that recorded it; without, every rank builds independently. Both
/// paths return bit-identical grammars in rank order.
pub fn build_rank_grammars(seqs: &[Vec<u32>], memoize: bool) -> Vec<Arc<Grammar>> {
    if !memoize {
        let symbols: usize = seqs.iter().map(Vec::len).sum();
        return siesta_par::parallel_map_min_work(
            seqs,
            symbols,
            MIN_SYMBOLS_TO_FAN_OUT,
            |rank, seq| {
                let _span = siesta_obs::span!("sequitur", rank = rank, symbols = seq.len());
                Arc::new(Sequitur::build(seq))
            },
        );
    }
    // Dedupe on the whole sequence, first-seen order (siesta_hash's
    // contract: equality decides, the hash only routes).
    let FirstSeen { class, first } = first_seen(seqs.iter().map(Vec::as_slice));
    siesta_obs::counter("grammar.memo.unique").add(first.len() as u64);
    siesta_obs::counter("grammar.memo.hits").add((seqs.len() - first.len()) as u64);
    let symbols: usize = first.iter().map(|&r| seqs[r].len()).sum();
    let built =
        siesta_par::parallel_map_min_work(&first, symbols, MIN_SYMBOLS_TO_FAN_OUT, |u, &r| {
            let seq = &seqs[r];
            let _span = siesta_obs::span!("sequitur", unique = u, symbols = seq.len());
            Arc::new(Sequitur::build(seq))
        });
    if built.len() == seqs.len() {
        // No duplicates: first-seen order is input order, so the built
        // vector already is the answer.
        return built;
    }
    class.into_iter().map(|u| Arc::clone(&built[u])).collect()
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
        // Duplicate ranks share one grammar.
        assert!(Arc::ptr_eq(&memo[0], &memo[3]));
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
