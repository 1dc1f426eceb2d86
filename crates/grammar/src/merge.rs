//! Inter-process grammar merging (Section 2.6 of the paper).
//!
//! After every rank has compressed its own trace, three merges shrink the
//! per-process grammars into one job-wide grammar:
//!
//! 1. **Terminal tables** are merged by the tracing layer (events are
//!    hash-consed into global ids before the grammars reach this module).
//! 2. **Non-terminal tables**: identical rules from different ranks merge.
//!    Rules are processed in increasing *depth* order so that a rule's
//!    children are already globally numbered when the rule itself is
//!    hashed — the paper's observation that deeper symbols need the
//!    shallower merge results.
//! 3. **Main rules**: the per-rank start rules are nearly identical for
//!    SPMD programs. They are first deduplicated, then clustered by edit
//!    distance, and within each cluster merged pairwise by longest common
//!    subsequence; every merged symbol carries a [`RankSet`] saying which
//!    ranks execute it (Figure 3 of the paper).

use std::borrow::Borrow;

use siesta_hash::{first_seen, first_seen_shared, fx_map, FirstSeen, FxHashMap};

use crate::cluster::cluster_by_edit_distance;
use crate::grammar::Grammar;
use crate::lcs;
use crate::symbol::{RSym, RankSet, Sym};

/// A symbol of a merged main rule: which ranks execute it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MainSym {
    pub sym: Sym,
    pub exp: u64,
    pub ranks: RankSet,
}

/// One merged main rule, covering a cluster of similar ranks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MergedMain {
    /// All ranks covered by this merged main.
    pub ranks: RankSet,
    pub body: Vec<MainSym>,
}

/// The job-wide merged grammar.
#[derive(Debug, Clone, PartialEq)]
pub struct MergedGrammar {
    /// Global non-terminal table; `Sym::N(i)` in any body indexes here.
    pub rules: Vec<Vec<RSym>>,
    /// Merged main rules (one per cluster of similar ranks).
    pub mains: Vec<MergedMain>,
    pub nranks: usize,
}

impl MergedGrammar {
    /// Total run-length symbols across the rule table and all merged mains
    /// — the size that `size_C` in Table 3 is proportional to.
    pub fn size(&self) -> usize {
        self.rules.iter().map(|r| r.len()).sum::<usize>()
            + self.mains.iter().map(|m| m.body.len()).sum::<usize>()
    }

    /// The merged main covering `rank`.
    pub fn main_for_rank(&self, rank: u32) -> Option<&MergedMain> {
        self.mains.iter().find(|m| m.ranks.contains(rank))
    }

    /// Re-derive the flat terminal sequence rank `rank` executes: filter its
    /// merged main by rank set, then expand each symbol. This is the
    /// losslessness witness — it must equal the rank's original trace.
    pub fn expand_for_rank(&self, rank: u32) -> Vec<u32> {
        let main = match self.main_for_rank(rank) {
            Some(m) => m,
            None => return Vec::new(),
        };
        let mut out = Vec::new();
        for ms in &main.body {
            if !ms.ranks.contains(rank) {
                continue;
            }
            for _ in 0..ms.exp {
                match ms.sym {
                    Sym::T(t) => out.push(t),
                    Sym::N(n) => self.expand_rule_into(n, &mut out),
                }
            }
        }
        out
    }

    fn expand_rule_into(&self, rule: u32, out: &mut Vec<u32>) {
        for rs in &self.rules[rule as usize] {
            for _ in 0..rs.exp {
                match rs.sym {
                    Sym::T(t) => out.push(t),
                    Sym::N(n) => self.expand_rule_into(n, out),
                }
            }
        }
    }

    /// Number of distinct main-rule variants before clustering collapsed
    /// them (diagnostic).
    pub fn num_mains(&self) -> usize {
        self.mains.len()
    }
}

/// Configuration of the merge.
#[derive(Debug, Clone, Copy)]
pub struct MergeConfig {
    /// Normalized edit-distance threshold for clustering main rules: two
    /// mains merge only if `D / (len_a + len_b)` is at most this. The paper
    /// merges "only ... processes with high similarity".
    pub cluster_threshold: f64,
}

impl Default for MergeConfig {
    fn default() -> Self {
        MergeConfig { cluster_threshold: 0.5 }
    }
}

/// Merge per-rank grammars (terminals already globally numbered) into one
/// job-wide grammar. `grammars[rank]` is rank `rank`'s grammar, owned or
/// shared (`Arc<Grammar>`).
///
/// SPMD ranks repeat each other, so the work follows the distinct
/// grammars, not the ranks: `siesta_hash::first_seen_shared` dedupes the
/// input, hashing a grammar that ranks share by reference once, each
/// distinct grammar is mapped once in first-seen order, and every rank
/// joins its grammar's main variant. A later rank's equal grammar
/// would only find its rules already in the table, so the rule table, the
/// variants and their order are those of a per-rank merge.
pub fn merge_grammars(grammars: &[impl Borrow<Grammar>], config: &MergeConfig) -> MergedGrammar {
    let nranks = grammars.len();
    let FirstSeen { class: grammar_of, first: distinct } =
        first_seen_shared(grammars.iter().map(Borrow::borrow));

    // ---- Non-terminal merge, depth order, then each main rule in the
    // global symbol space.
    let mut global_rules: Vec<Vec<RSym>> = Vec::new();
    let mut rule_index: FxHashMap<Vec<RSym>, u32> = fx_map();
    let mut mains_global: Vec<Vec<RSym>> = distinct
        .iter()
        .map(|&rank| map_rules(grammars[rank].borrow(), &mut global_rules, &mut rule_index))
        .collect();

    // ---- Deduplicate identical mains: each variant moves out of its
    // first grammar's main. Distinct grammars are in first-seen rank
    // order, so variants are too.
    let FirstSeen { class: variant_of, first } = first_seen(&mains_global);
    let variants: Vec<Vec<RSym>> =
        first.iter().map(|&g| std::mem::take(&mut mains_global[g])).collect();
    // One ascending pass over the ranks builds every variant's rank set.
    let mut variant_ranks = vec![RankSet::empty(); variants.len()];
    for (rank, &g) in grammar_of.iter().enumerate() {
        variant_ranks[variant_of[g]].push_sorted(rank as u32);
    }

    // ---- Cluster variants by edit distance, merge within clusters by LCS.
    // Clusters are independent, so they fan out across the pool; inside a
    // cluster the variants reduce through a balanced pairwise merge tree
    // whose shape depends only on the cluster's first-seen order — never
    // on the pool width — so the merged bodies are byte-identical at any
    // `--threads` (and identical to the old sequential fold for clusters
    // of up to three variants).
    let clusters = cluster_by_edit_distance(&variants, config.cluster_threshold);
    let cluster_work: usize = clusters
        .iter()
        .map(|c| c.iter().map(|&vi| variants[vi].len()).sum::<usize>())
        .sum();
    let mut mains = siesta_par::parallel_map_min_work(
        &clusters,
        cluster_work,
        crate::memo::MIN_SYMBOLS_TO_FAN_OUT,
        |_, cluster| merge_cluster(&variants, &variant_ranks, cluster),
    );
    // Deterministic order: by smallest covered rank.
    mains.sort_by_key(|m| m.ranks.iter().next().unwrap_or(u32::MAX));

    siesta_obs::gauge("grammar.main_variants").set(variants.len() as i64);
    siesta_obs::gauge("grammar.main_clusters").set(mains.len() as i64);
    siesta_obs::gauge("grammar.merged_rules").set(global_rules.len() as i64);
    siesta_obs::debug!(
        "grammar-merge: {nranks} ranks -> {} main variants -> {} clusters, {} shared rules",
        variants.len(),
        mains.len(),
        global_rules.len()
    );

    MergedGrammar { rules: global_rules, mains, nranks }
}

/// Add `g`'s rules to the global table, shallowest first, so that a
/// rule's children already have global ids when its body is hashed, and
/// return `g`'s main rule over global symbols. Identical bodies share one
/// global rule.
fn map_rules(
    g: &Grammar,
    global_rules: &mut Vec<Vec<RSym>>,
    rule_index: &mut FxHashMap<Vec<RSym>, u32>,
) -> Vec<RSym> {
    let depths = g.depths();
    // Local rules except main (rule 0), ascending depth; ties by id for
    // determinism.
    let mut order: Vec<u32> = (1..g.rules.len() as u32).collect();
    order.sort_by_key(|&r| (depths[r as usize], r));
    // Local rule id → global rule id.
    let mut map: Vec<Option<u32>> = vec![None; g.rules.len()];
    let to_global = |map: &[Option<u32>], body: &[RSym]| -> Vec<RSym> {
        body.iter()
            .map(|rs| match rs.sym {
                Sym::T(_) => *rs,
                Sym::N(n) => {
                    let gid = map[n as usize].expect("children are shallower, so mapped first");
                    RSym { sym: Sym::N(gid), exp: rs.exp }
                }
            })
            .collect()
    };
    for r in order {
        let body = to_global(&map, &g.rules[r as usize]);
        map[r as usize] = Some(*rule_index.entry(body).or_insert_with_key(|body| {
            global_rules.push(body.clone());
            (global_rules.len() - 1) as u32
        }));
    }
    to_global(&map, &g.rules[0])
}

/// Reduce one cluster of variants to its merged main through a balanced
/// pairwise LCS merge tree: round one merges variants (0,1), (2,3), …,
/// round two merges those results pairwise, and so on — log₂(cluster)
/// rounds whose pair merges are independent and fan out across the pool.
/// The tree shape is a pure function of the cluster's first-seen variant
/// order, so the result is identical at every pool width.
fn merge_cluster(
    variants: &[Vec<RSym>],
    variant_ranks: &[RankSet],
    cluster: &[usize],
) -> MergedMain {
    let mut acc_ranks = variant_ranks[cluster[0]].clone();
    for &vi in &cluster[1..] {
        acc_ranks = acc_ranks.union(&variant_ranks[vi]);
    }
    let mut level: Vec<Vec<MainSym>> = cluster
        .iter()
        .map(|&vi| {
            variants[vi]
                .iter()
                .map(|rs| MainSym { sym: rs.sym, exp: rs.exp, ranks: variant_ranks[vi].clone() })
                .collect()
        })
        .collect();
    while level.len() > 1 {
        let work: usize = level.iter().map(Vec::len).sum();
        let mut pairs: Vec<(Vec<MainSym>, Option<Vec<MainSym>>)> = Vec::with_capacity(
            level.len().div_ceil(2),
        );
        let mut it = level.into_iter();
        while let Some(left) = it.next() {
            pairs.push((left, it.next()));
        }
        // Nested regions run inline on pool workers, so the per-cluster
        // fan-out composes with the cluster-level fan-out above.
        level = siesta_par::parallel_map_owned_min_work(
            pairs,
            work,
            crate::memo::MIN_SYMBOLS_TO_FAN_OUT,
            |_, (left, right)| match right {
                Some(right) => lcs_merge_mains(&left, &right),
                None => left, // odd tail passes through to the next round
            },
        );
    }
    let body = level.pop().unwrap_or_default();
    MergedMain { ranks: acc_ranks, body }
}

/// Merge two partially merged mains via LCS (Figure 3): symbols on the
/// LCS — matched on `(sym, exp)` — take the union of the two rank sets;
/// off-LCS symbols keep their own, interleaved left-side-first so both
/// sources keep their relative order.
fn lcs_merge_mains(acc: &[MainSym], new: &[MainSym]) -> Vec<MainSym> {
    let acc_key: Vec<RSym> = acc.iter().map(|m| RSym { sym: m.sym, exp: m.exp }).collect();
    let new_key: Vec<RSym> = new.iter().map(|m| RSym { sym: m.sym, exp: m.exp }).collect();
    let d = lcs::diff(&acc_key, &new_key, acc_key.len() + new_key.len())
        .expect("unbounded diff succeeds");
    let mut out = Vec::with_capacity(acc.len() + new.len());
    let mut ai = 0usize;
    let mut ni = 0usize;
    for &(ma, mn) in &d.matches {
        // Unmatched prefix from the left side, then from the right.
        while ai < ma {
            out.push(acc[ai].clone());
            ai += 1;
        }
        while ni < mn {
            out.push(new[ni].clone());
            ni += 1;
        }
        // The matched symbol: union of rank sets.
        out.push(MainSym {
            sym: acc[ai].sym,
            exp: acc[ai].exp,
            ranks: acc[ai].ranks.union(&new[ni].ranks),
        });
        ai += 1;
        ni += 1;
    }
    while ai < acc.len() {
        out.push(acc[ai].clone());
        ai += 1;
    }
    while ni < new.len() {
        out.push(new[ni].clone());
        ni += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sequitur::Sequitur;

    fn merge(seqs: &[Vec<u32>]) -> MergedGrammar {
        let grammars: Vec<Grammar> = seqs.iter().map(|s| Sequitur::build(s)).collect();
        merge_grammars(&grammars, &MergeConfig::default())
    }

    /// The per-rank merge that `merge_grammars` replaced, kept as its
    /// reference: every rank's grammar is mapped, and every rank joins its
    /// variant's rank set by a union.
    fn per_rank_reference(grammars: &[Grammar], config: &MergeConfig) -> MergedGrammar {
        let nranks = grammars.len();
        let mut global_rules: Vec<Vec<RSym>> = Vec::new();
        let mut rule_index: FxHashMap<Vec<RSym>, u32> = fx_map();
        let mut maps: Vec<FxHashMap<u32, u32>> = Vec::with_capacity(nranks);
        for g in grammars {
            let depths = g.depths();
            let mut order: Vec<u32> = (1..g.rules.len() as u32).collect();
            order.sort_by_key(|&r| (depths[r as usize], r));
            let mut map: FxHashMap<u32, u32> = fx_map();
            for r in order {
                let body: Vec<RSym> = g.rules[r as usize]
                    .iter()
                    .map(|rs| RSym {
                        sym: match rs.sym {
                            Sym::T(t) => Sym::T(t),
                            Sym::N(n) => Sym::N(map[&n]),
                        },
                        exp: rs.exp,
                    })
                    .collect();
                let gid = *rule_index.entry(body.clone()).or_insert_with(|| {
                    global_rules.push(body);
                    (global_rules.len() - 1) as u32
                });
                map.insert(r, gid);
            }
            maps.push(map);
        }
        let mut mains_global: Vec<Vec<RSym>> = grammars
            .iter()
            .zip(&maps)
            .map(|(g, map)| {
                g.rules[0]
                    .iter()
                    .map(|rs| RSym {
                        sym: match rs.sym {
                            Sym::T(t) => Sym::T(t),
                            Sym::N(n) => Sym::N(map[&n]),
                        },
                        exp: rs.exp,
                    })
                    .collect()
            })
            .collect();
        let FirstSeen { class, first } = first_seen(&mains_global);
        let variants: Vec<Vec<RSym>> =
            first.iter().map(|&rank| std::mem::take(&mut mains_global[rank])).collect();
        let mut variant_ranks = vec![RankSet::empty(); variants.len()];
        for (rank, &v) in class.iter().enumerate() {
            variant_ranks[v] = variant_ranks[v].union(&RankSet::single(rank as u32));
        }
        let clusters = cluster_by_edit_distance(&variants, config.cluster_threshold);
        let mut mains: Vec<MergedMain> =
            clusters.iter().map(|c| merge_cluster(&variants, &variant_ranks, c)).collect();
        mains.sort_by_key(|m| m.ranks.iter().next().unwrap_or(u32::MAX));
        MergedGrammar { rules: global_rules, mains, nranks }
    }

    #[test]
    fn deduped_merge_equals_the_per_rank_merge() {
        // Three SPMD-like streams and one that clusters apart, spread so
        // that every rank set is fragmented: every 7th rank differs, every
        // 11th differs again, and one rank is alone.
        let body = |tail: &[u32]| -> Vec<u32> {
            let mut s: Vec<u32> = std::iter::repeat_n([1u32, 2, 3, 2, 4], 12).flatten().collect();
            s.extend_from_slice(tail);
            s
        };
        let kinds = [
            Sequitur::build(&body(&[9])),
            Sequitur::build(&body(&[8, 9])),
            Sequitur::build(&body(&[7])),
            Sequitur::build(&(40..70).collect::<Vec<u32>>()),
        ];
        let kind_of = |rank: usize| match rank {
            17 => 3,
            r if r % 11 == 0 => 2,
            r if r % 7 == 3 => 1,
            _ => 0,
        };
        for nranks in [1usize, 2, 12, 100] {
            let owned: Vec<Grammar> = (0..nranks).map(|r| kinds[kind_of(r)].clone()).collect();
            let expected = per_rank_reference(&owned, &MergeConfig::default());
            assert_eq!(merge_grammars(&owned, &MergeConfig::default()), expected, "P={nranks}");
            // Ranks that share their grammar by reference merge the same.
            let shared: Vec<std::sync::Arc<Grammar>> =
                kinds.iter().cloned().map(std::sync::Arc::new).collect();
            let by_ref: Vec<_> = (0..nranks).map(|r| shared[kind_of(r)].clone()).collect();
            assert_eq!(merge_grammars(&by_ref, &MergeConfig::default()), expected, "P={nranks}");
        }
    }

    #[test]
    fn distinct_grammars_with_equal_mains_share_one_variant() {
        // Two numberings of the same rules: unequal grammars whose mains
        // are equal over global symbols.
        let t = |id| RSym::new(Sym::T(id), 1);
        let n = |id| RSym::new(Sym::N(id), 2);
        let a = Grammar { rules: vec![vec![n(1), n(2)], vec![t(1), t(2)], vec![t(3), t(4)]] };
        let b = Grammar { rules: vec![vec![n(2), n(1)], vec![t(3), t(4)], vec![t(1), t(2)]] };
        let c = Grammar { rules: vec![vec![t(5), t(6)]] };
        let grammars = vec![a.clone(), c.clone(), b.clone(), a, c, b];
        let merged = merge_grammars(&grammars, &MergeConfig::default());
        assert_eq!(merged, per_rank_reference(&grammars, &MergeConfig::default()));
        assert_eq!(merged.rules.len(), 2);
        let main = merged.main_for_rank(0).expect("rank 0 is covered");
        assert_eq!(main.ranks, RankSet::from_iter([0, 2, 3, 5]));
    }

    #[test]
    fn identical_ranks_collapse_to_one_main() {
        let seq: Vec<u32> = (0..100).map(|i| i % 4).collect();
        let m = merge(&[seq.clone(), seq.clone(), seq.clone(), seq.clone()]);
        assert_eq!(m.mains.len(), 1);
        assert_eq!(m.mains[0].ranks.len(), 4);
        for r in 0..4 {
            assert_eq!(m.expand_for_rank(r), seq, "rank {r}");
        }
    }

    #[test]
    fn shared_rules_are_stored_once() {
        // Two ranks with the same repetitive core produce one rule table
        // entry for the shared structure.
        let a: Vec<u32> = std::iter::repeat_n([1u32, 2, 3], 30).flatten().collect();
        let mut b = a.clone();
        b.push(99); // small divergence at the end
        let m = merge(&[a.clone(), b.clone()]);
        let separate: usize = [&a, &b]
            .iter()
            .map(|s| Sequitur::build(s).size())
            .sum();
        assert!(
            m.size() < separate,
            "merged {} not smaller than separate {}",
            m.size(),
            separate
        );
        assert_eq!(m.expand_for_rank(0), a);
        assert_eq!(m.expand_for_rank(1), b);
    }

    #[test]
    fn figure3_style_merge_unions_rank_lists() {
        // Figure 3: two mains sharing a common subsequence; the merged main
        // marks shared symbols with both ranks and keeps private symbols.
        let a = vec![1, 2, 3, 4, 5];
        let b = vec![1, 2, 9, 4, 5];
        let m = merge(&[a.clone(), b.clone()]);
        assert_eq!(m.mains.len(), 1);
        let main = &m.mains[0];
        // Both ranks replay exactly.
        assert_eq!(m.expand_for_rank(0), a);
        assert_eq!(m.expand_for_rank(1), b);
        // The shared symbols carry both ranks.
        let shared: Vec<&MainSym> =
            main.body.iter().filter(|s| s.ranks.len() == 2).collect();
        assert_eq!(shared.len(), 4, "main: {:?}", main.body);
        // The private symbols carry exactly one rank each.
        let private: Vec<&MainSym> =
            main.body.iter().filter(|s| s.ranks.len() == 1).collect();
        assert_eq!(private.len(), 2);
    }

    #[test]
    fn dissimilar_mains_stay_separate() {
        let a: Vec<u32> = (0..60).map(|i| i % 3).collect();
        let b: Vec<u32> = (0..60).map(|i| 50 + i % 7).collect();
        let m = merge(&[a.clone(), b.clone()]);
        assert_eq!(m.mains.len(), 2, "dissimilar ranks must not merge");
        assert_eq!(m.expand_for_rank(0), a);
        assert_eq!(m.expand_for_rank(1), b);
    }

    #[test]
    fn spmd_with_boundary_ranks_replays_losslessly() {
        // Rank 0 and rank 3 are "boundary" (skip one phase); 1, 2 interior.
        let interior: Vec<u32> =
            std::iter::repeat_n([10u32, 11, 12, 13], 25).flatten().collect();
        let boundary: Vec<u32> =
            std::iter::repeat_n([10u32, 12, 13], 25).flatten().collect();
        let seqs = vec![boundary.clone(), interior.clone(), interior.clone(), boundary.clone()];
        let m = merge(&seqs);
        for (r, expected) in seqs.iter().enumerate() {
            assert_eq!(&m.expand_for_rank(r as u32), expected, "rank {r}");
        }
        // Boundary pair and interior pair share main structure, so at most
        // two mains (possibly one if the cluster threshold lets them merge).
        assert!(m.mains.len() <= 2, "got {} mains", m.mains.len());
    }

    #[test]
    fn merged_size_scales_sublinearly_with_ranks() {
        // 16 ranks, identical behaviour: merged size must be much closer to
        // one rank's grammar than to 16×.
        let seq: Vec<u32> = std::iter::repeat_n([1u32, 2, 3, 4, 2, 3], 40).flatten().collect();
        let one = Sequitur::build(&seq).size();
        let m = merge(&vec![seq; 16]);
        assert!(m.size() <= one + 4, "merged {} vs single {}", m.size(), one);
    }

    #[test]
    fn main_for_rank_covers_all_ranks() {
        let seqs: Vec<Vec<u32>> = (0..5u32).map(|r| vec![r, r, r, 1, 2, 3]).collect();
        let m = merge(&seqs);
        for r in 0..5 {
            assert!(m.main_for_rank(r).is_some(), "rank {r} uncovered");
            assert_eq!(m.expand_for_rank(r), seqs[r as usize]);
        }
        assert!(m.main_for_rank(5).is_none());
    }
}
