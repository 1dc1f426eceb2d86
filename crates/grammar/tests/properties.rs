//! Property tests for the grammar pipeline, on the seeded `siesta-prop`
//! harness: a failure prints its case and seed, and rerunning the test
//! reproduces it.

use siesta_grammar::{merge_grammars, MergeConfig, RankSet, Sequitur};
use siesta_prop::{check, Gen};

#[path = "common/reference.rs"]
mod reference;
use reference::NaiveSequitur;

/// Structured sequence generator: random inputs rarely compress, so also
/// generate loopy inputs that exercise the interesting paths.
fn structured_seq(g: &mut Gen) -> Vec<u32> {
    match g.draw(0u32..4) {
        // Pure random.
        0 => g.vec(0..200, |g| g.draw(0u32..8)),
        // Repeated phrase with noise between repetitions.
        1 => {
            let phrase = g.vec(1..8, |g| g.draw(0u32..6));
            let reps = g.draw(1usize..40);
            let tail = g.vec(0..3, |g| g.draw(0u32..6));
            let mut out = Vec::new();
            for _ in 0..reps {
                out.extend(&phrase);
            }
            out.extend(tail);
            out
        }
        // Nested loops: (a (b)^k c)^m.
        2 => {
            let (k, m) = (g.draw(1u64..20), g.draw(1usize..20));
            let mut out = Vec::new();
            for _ in 0..m {
                out.push(1);
                out.extend(std::iter::repeat_n(2, k as usize));
                out.push(3);
            }
            out
        }
        // Long runs.
        _ => g
            .vec(0..20, |g| (g.draw(0u32..4), g.draw(1usize..30)))
            .into_iter()
            .flat_map(|(s, n)| std::iter::repeat_n(s, n))
            .collect(),
    }
}

/// The fundamental guarantee: grammar expansion reproduces the input.
#[test]
fn sequitur_round_trips() {
    check("sequitur_round_trips", 256, |g| {
        let seq = structured_seq(g);
        assert_eq!(Sequitur::build(&seq).expand_main(), seq);
    });
}

/// The arena/interning builder produces the *identical* rule table to
/// the naive tuple-keyed reference implementation, in both RLE and
/// classic mode: any divergence pinpoints an aliasing bug in the intern
/// tables, the packed digram keys, or the intrusive occurrence lists.
/// `tests/reference_cross_check.rs` runs the same oracle on a second
/// family of input shapes.
#[test]
fn interned_sequitur_matches_naive_reference() {
    check("interned_sequitur_matches_naive_reference", 256, |g| {
        let seq = structured_seq(g);
        assert_eq!(Sequitur::build(&seq).rules, NaiveSequitur::build(&seq, true));
        assert_eq!(Sequitur::build_classic(&seq).rules, NaiveSequitur::build(&seq, false));
    });
}

/// Digram uniqueness, run-length, and utility invariants hold.
#[test]
fn sequitur_invariants_hold() {
    check("sequitur_invariants_hold", 256, |g| {
        Sequitur::build(&structured_seq(g)).assert_invariants();
    });
}

/// The grammar never has more symbols than the input (compression may
/// fail to help, but must not hurt by more than the rule overhead).
#[test]
fn grammar_size_bounded() {
    check("grammar_size_bounded", 256, |g| {
        let seq = structured_seq(g);
        assert!(Sequitur::build(&seq).size() <= seq.len().max(1));
    });
}

/// Merged grammars replay every rank exactly (losslessness across the
/// whole intra + inter process pipeline).
#[test]
fn merge_is_lossless_per_rank() {
    check("merge_is_lossless_per_rank", 256, |g| {
        let base = structured_seq(g);
        let variants = g.vec(1..6, |g| g.vec(0..5, |g| g.draw(0u32..8)));
        // Each rank = base sequence with a small private suffix — the SPMD
        // shape (mostly identical, small divergences).
        let seqs: Vec<Vec<u32>> = variants
            .iter()
            .map(|tail| {
                let mut s = base.clone();
                s.extend(tail);
                s
            })
            .collect();
        let grammars: Vec<_> = seqs.iter().map(|s| Sequitur::build(s)).collect();
        let merged = merge_grammars(&grammars, &MergeConfig::default());
        for (r, expected) in seqs.iter().enumerate() {
            assert_eq!(&merged.expand_for_rank(r as u32), expected, "rank {r}");
        }
    });
}

/// Rank-set union is commutative, associative, and idempotent; length
/// and membership agree with a model set.
#[test]
fn rankset_algebra() {
    check("rankset_algebra", 256, |g| {
        let [a, b, c] = std::array::from_fn(|_| g.set(0..40, |g| g.draw(0u32..200)));
        let ra = RankSet::from_iter(a.iter().copied());
        let rb = RankSet::from_iter(b.iter().copied());
        let rc = RankSet::from_iter(c.iter().copied());
        assert_eq!(ra.union(&rb), rb.union(&ra));
        assert_eq!(ra.union(&rb).union(&rc), ra.union(&rb.union(&rc)));
        assert_eq!(ra.union(&ra), ra.clone());
        let model: std::collections::BTreeSet<u32> = a.union(&b).copied().collect();
        let u = ra.union(&rb);
        assert_eq!(u.len(), model.len());
        for x in 0u32..200 {
            assert_eq!(u.contains(x), model.contains(&x));
        }
        let round: Vec<u32> = u.iter().collect();
        let expect: Vec<u32> = model.into_iter().collect();
        assert_eq!(round, expect);
    });
}
