//! Cross-check of the arena/interning Sequitur against the naive
//! tuple-keyed reference in `common/reference.rs`, on the seeded
//! `siesta-prop` harness.
//!
//! The grammar property suite runs the same oracle on its
//! `structured_seq` shapes; these inputs are a second family: pure
//! random over a small alphabet, a phrase whose repetitions are separated
//! by noise from a disjoint alphabet, and nested loops and long runs over
//! a few distinct symbols. Each test cycles through the four shapes, so
//! every run covers all of them. A failure prints its case and seed, and
//! rerunning the test reproduces it.

#[path = "common/reference.rs"]
mod reference;

use reference::NaiveSequitur;
use siesta_grammar::Sequitur;
use siesta_prop::{check, Gen};

/// One input of the given shape (taken modulo 4).
fn alphabet_seq(g: &mut Gen, shape: u32) -> Vec<u32> {
    match shape % 4 {
        // Pure random over a small alphabet.
        0 => g.vec(0..200, |g| g.draw(0u32..8)),
        // A repeated phrase with interleaved noise.
        1 => {
            let phrase = g.vec(2..7, |g| g.draw(0u32..6));
            let mut seq = Vec::new();
            for _ in 0..g.draw(1u32..13) {
                seq.extend(&phrase);
                for _ in 0..g.draw(0u32..3) {
                    seq.push(g.draw(6u32..10));
                }
            }
            seq
        }
        // Nested loops: (a b^k c)^m.
        2 => {
            let (a, b, c) = (g.draw(0u32..4), g.draw(4u32..8), g.draw(8u32..12));
            let k = g.draw(1usize..7);
            let mut seq = Vec::new();
            for _ in 0..g.draw(1u32..11) {
                seq.push(a);
                seq.extend(std::iter::repeat_n(b, k));
                seq.push(c);
            }
            seq
        }
        // Long runs of few symbols.
        _ => {
            let mut seq = Vec::new();
            for _ in 0..g.draw(1u32..9) {
                let s = g.draw(0u32..3);
                seq.extend(std::iter::repeat_n(s, g.draw(1usize..41)));
            }
            seq
        }
    }
}

#[test]
fn interned_sequitur_matches_naive_reference() {
    let mut shape = 0;
    check("interned_sequitur_matches_naive_reference", 400, |g| {
        let seq = alphabet_seq(g, shape);
        shape += 1;
        assert_eq!(
            Sequitur::build(&seq).rules,
            NaiveSequitur::build(&seq, true),
            "RLE grammar diverges from naive reference, input {seq:?}"
        );
    });
}

#[test]
fn classic_sequitur_matches_naive_reference() {
    let mut shape = 0;
    check("classic_sequitur_matches_naive_reference", 400, |g| {
        let seq = alphabet_seq(g, shape);
        shape += 1;
        assert_eq!(
            Sequitur::build_classic(&seq).rules,
            NaiveSequitur::build(&seq, false),
            "classic grammar diverges from naive reference, input {seq:?}"
        );
    });
}
