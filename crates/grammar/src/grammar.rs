//! Immutable grammar representation with expansion, depth computation, and
//! invariant checks.

use std::collections::HashMap;

use crate::symbol::{RSym, Sym};

/// A context-free grammar with run-length symbols. Rule 0 is the main rule
/// (the start symbol `S`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Grammar {
    pub rules: Vec<Vec<RSym>>,
}

impl Grammar {
    /// Total number of run-length symbols across all rule bodies — the
    /// paper's grammar-size measure.
    pub fn size(&self) -> usize {
        self.rules.iter().map(|r| r.len()).sum()
    }

    /// Expand a rule to the flat terminal sequence it derives.
    pub fn expand(&self, rule: u32) -> Vec<u32> {
        let mut out = Vec::new();
        self.expand_into(rule, &mut out);
        out
    }

    /// Expand the main rule.
    pub fn expand_main(&self) -> Vec<u32> {
        self.expand(0)
    }

    fn expand_into(&self, rule: u32, out: &mut Vec<u32>) {
        for rs in &self.rules[rule as usize] {
            for _ in 0..rs.exp {
                match rs.sym {
                    Sym::T(t) => out.push(t),
                    Sym::N(n) => self.expand_into(n, out),
                }
            }
        }
    }

    /// Number of terminals the main rule derives, without materializing
    /// the expansion (safe for astronomically compressed grammars).
    pub fn expanded_len(&self, rule: u32) -> u128 {
        let mut memo: HashMap<u32, u128> = HashMap::new();
        self.expanded_len_memo(rule, &mut memo)
    }

    fn expanded_len_memo(&self, rule: u32, memo: &mut HashMap<u32, u128>) -> u128 {
        if let Some(&v) = memo.get(&rule) {
            return v;
        }
        let mut total: u128 = 0;
        for rs in &self.rules[rule as usize] {
            let unit = match rs.sym {
                Sym::T(_) => 1,
                Sym::N(n) => self.expanded_len_memo(n, memo),
            };
            total += unit * rs.exp as u128;
        }
        memo.insert(rule, total);
        total
    }

    /// Depth of every rule: terminals are depth 0; a rule's depth is
    /// 1 + max depth of its body symbols. Used to order the inter-process
    /// non-terminal merge (Section 2.6.2).
    pub fn depths(&self) -> Vec<u32> {
        let mut depths = vec![u32::MAX; self.rules.len()];
        for r in 0..self.rules.len() {
            self.depth_of(r as u32, &mut depths);
        }
        depths
    }

    fn depth_of(&self, rule: u32, depths: &mut Vec<u32>) -> u32 {
        if depths[rule as usize] != u32::MAX {
            return depths[rule as usize];
        }
        let mut d = 0;
        for rs in &self.rules[rule as usize] {
            if let Sym::N(n) = rs.sym {
                d = d.max(1 + self.depth_of(n, depths));
            } else {
                d = d.max(1);
            }
        }
        depths[rule as usize] = d;
        d
    }

    /// Count references to each rule from other rule bodies.
    pub fn ref_counts(&self) -> Vec<u32> {
        let mut refs = vec![0u32; self.rules.len()];
        for body in &self.rules {
            for rs in body {
                if let Sym::N(n) = rs.sym {
                    refs[n as usize] += 1;
                }
            }
        }
        refs
    }

    /// Rewrite every terminal `t` to `remap[t]`, leaving rule structure,
    /// exponents, and numbering untouched.
    ///
    /// Sequitur's decisions depend only on the *equality pattern* of its
    /// input, never on terminal values, so for an **injective** remap this
    /// commutes with construction:
    /// `build(seq).relabel_terminals(r) == build(r ∘ seq)`. The streaming
    /// ingest path relies on that to lift grammars built over rank-local
    /// ids into the merged global id space without re-running Sequitur
    /// (`sequitur::tests::relabel_commutes_with_build` locks the property
    /// in). A non-injective remap collapses distinct terminals and the
    /// equality pattern changes — callers must fall back to expanding and
    /// rebuilding in that case.
    pub fn relabel_terminals(&self, remap: &[u32]) -> Grammar {
        let rules = self
            .rules
            .iter()
            .map(|body| {
                body.iter()
                    .map(|rs| match rs.sym {
                        Sym::T(t) => RSym::new(Sym::T(remap[t as usize]), rs.exp),
                        n => RSym::new(n, rs.exp),
                    })
                    .collect()
            })
            .collect();
        Grammar { rules }
    }

    /// Verify the Sequitur invariants; panics with a description otherwise.
    /// Test-support API, also used by the pipeline's debug assertions.
    pub fn assert_invariants(&self) {
        // 1. No adjacent equal symbols (run-length invariant).
        for (ri, body) in self.rules.iter().enumerate() {
            for w in body.windows(2) {
                assert!(
                    w[0].sym != w[1].sym,
                    "rule {ri}: adjacent equal symbols {} {}",
                    w[0],
                    w[1]
                );
            }
        }
        // 2. Digram uniqueness across all bodies.
        let mut seen: HashMap<(Sym, u64, Sym, u64), (usize, usize)> = HashMap::new();
        for (ri, body) in self.rules.iter().enumerate() {
            for (i, w) in body.windows(2).enumerate() {
                let key = (w[0].sym, w[0].exp, w[1].sym, w[1].exp);
                if let Some(&(pr, pi)) = seen.get(&key) {
                    panic!(
                        "digram {} {} occurs twice: rule {pr}@{pi} and rule {ri}@{i}",
                        w[0], w[1]
                    );
                }
                seen.insert(key, (ri, i));
            }
        }
        // 3. Utility: every non-main rule is referenced ≥ 2 times, or once
        //    with exponent ≥ 2.
        let mut ref_exp: Vec<Vec<u64>> = vec![Vec::new(); self.rules.len()];
        for body in &self.rules {
            for rs in body {
                if let Sym::N(n) = rs.sym {
                    ref_exp[n as usize].push(rs.exp);
                }
            }
        }
        for (ri, exps) in ref_exp.iter().enumerate().skip(1) {
            let useful = exps.len() >= 2 || exps.iter().any(|&e| e >= 2);
            assert!(useful, "rule {ri} fails utility: referenced {exps:?}");
        }
        // 4. All referenced rules exist and are acyclic (depths terminates).
        let _ = self.depths();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(id: u32, exp: u64) -> RSym {
        RSym::new(Sym::T(id), exp)
    }

    fn n(id: u32, exp: u64) -> RSym {
        RSym::new(Sym::N(id), exp)
    }

    #[test]
    fn expansion_with_powers_and_nesting() {
        // S → R1^2 t9 ; R1 → t1 t2^3
        let g = Grammar { rules: vec![vec![n(1, 2), t(9, 1)], vec![t(1, 1), t(2, 3)]] };
        assert_eq!(g.expand_main(), vec![1, 2, 2, 2, 1, 2, 2, 2, 9]);
        assert_eq!(g.expanded_len(0), 9);
        assert_eq!(g.size(), 4);
    }

    #[test]
    fn expanded_len_handles_huge_powers() {
        // S → R1^1000000 ; R1 → t0^1000000 — would be 10^12 terminals.
        let g = Grammar { rules: vec![vec![n(1, 1_000_000)], vec![t(0, 1_000_000)]] };
        assert_eq!(g.expanded_len(0), 1_000_000_000_000u128);
    }

    #[test]
    fn depths() {
        // S → R1 ; R1 → R2 t1 ; R2 → t0
        let g = Grammar {
            rules: vec![vec![n(1, 2)], vec![n(2, 1), t(1, 1)], vec![t(0, 5)]],
        };
        assert_eq!(g.depths(), vec![3, 2, 1]);
    }

    #[test]
    fn ref_counts() {
        let g = Grammar {
            rules: vec![vec![n(1, 2), n(2, 1)], vec![n(2, 1), t(1, 1)], vec![t(0, 5)]],
        };
        assert_eq!(g.ref_counts(), vec![0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "adjacent equal symbols")]
    fn invariant_catches_unmerged_runs() {
        let g = Grammar { rules: vec![vec![t(1, 1), t(1, 1)]] };
        g.assert_invariants();
    }

    #[test]
    #[should_panic(expected = "occurs twice")]
    fn invariant_catches_duplicate_digrams() {
        let g = Grammar {
            rules: vec![vec![t(1, 1), t(2, 1), t(3, 1), t(1, 1), t(2, 1)]],
        };
        g.assert_invariants();
    }

    #[test]
    #[should_panic(expected = "fails utility")]
    fn invariant_catches_single_use_rules() {
        let g = Grammar { rules: vec![vec![n(1, 1), t(5, 1)], vec![t(1, 1), t(2, 1)]] };
        g.assert_invariants();
    }
}
