//! Global terminal-table merging (paper Section 2.6.1).
//!
//! "Many MPI programs exhibit a significant amount of duplication in
//! terminals between processes, which can be eliminated by recording the
//! repeated terminals once and assigning a unique global number. ... The
//! time complexity of the entire merging process is log₂P."
//!
//! This module performs that merge as an actual binary reduction tree:
//! per-rank tables combine pairwise, level by level, with each rank's id
//! sequence remapped into the winning table. Communication events merge on
//! their id in the job's list of distinct events — the recorder interned
//! them, so equal ids are exactly structurally equal events; computation
//! events merge when their representatives agree within the clustering
//! threshold, pooling their counter statistics.

use std::sync::Arc;

use siesta_grammar::memo::MIN_SYMBOLS_TO_FAN_OUT;
use siesta_grammar::{Grammar, Sequitur};
use siesta_hash::{first_seen, first_seen_shared, fx_map_with_capacity, FirstSeen, FxHashMap};
use siesta_perfmodel::CounterVec;

use crate::event::{counters_close, CommEvent, EventRecord, LocalEvent};
use crate::recorder::StreamedTrace;

/// Cross-rank compute clustering threshold. Representatives from different
/// ranks measure the same kernel with independent noise, so the merge
/// threshold matches the recording threshold.
const MERGE_THRESHOLD: f64 = 0.15;

/// Small-work guard of the merge rounds and the expansion: fan out only
/// when the tables or sequences hold enough events to amortize the pool
/// region hand-off (tiny traces would pay ~100µs per worker to merge
/// microseconds of work). The estimates are pure data, so the guard
/// cannot perturb determinism.
const MIN_EVENTS_TO_FAN_OUT: usize = 4096;

/// The job-wide trace after table merging: one global terminal table plus
/// per-rank sequences of global ids.
#[derive(Debug, Clone)]
pub struct GlobalTrace {
    pub nranks: usize,
    pub table: Vec<EventRecord>,
    pub seqs: Vec<Vec<u32>>,
    /// Total raw (uncompressed) trace bytes, carried through from recording.
    pub raw_bytes: usize,
    /// Tree-merge rounds performed (⌈log₂ P⌉, as the paper states).
    pub merge_rounds: u32,
}

/// Output of the table-only merge: the global terminal table plus, for
/// every rank, the composed local-table-id → global-id remap vector. The
/// remaps are table-sized (not sequence-sized), so the per-rank id
/// sequences never have to materialize to build it.
#[derive(Debug, Clone)]
pub struct MergedTables {
    pub nranks: usize,
    pub table: Vec<EventRecord>,
    /// `remaps[rank][local_id]` is the global id of that rank's local
    /// terminal. Indexed by rank; every vector has the rank's table length.
    pub remaps: Vec<Vec<u32>>,
    /// Tree-merge rounds performed (⌈log₂ P⌉, as the paper states).
    pub merge_rounds: u32,
}

struct Partial {
    /// This partial's table: communication events by job event id,
    /// compute clusters inline.
    table: Vec<LocalEvent>,
    /// Built at the partial's first absorb: a partial that is only ever
    /// absorbed (every first-round right child) is never looked up.
    index: Option<TableIndex>,
}

/// Where a partial's entries sit in its table.
struct TableIndex {
    /// Job event id → index in the table.
    comm: FxHashMap<u32, u32>,
    /// (table index, representative) per compute cluster.
    compute_clusters: Vec<(u32, CounterVec)>,
}

impl TableIndex {
    fn of(table: &[LocalEvent]) -> TableIndex {
        let mut comm = fx_map_with_capacity(table.len());
        let mut compute_clusters = Vec::new();
        for (i, e) in table.iter().enumerate() {
            match e {
                LocalEvent::Comm(id) => {
                    comm.insert(*id, i as u32);
                }
                LocalEvent::Compute(s) => {
                    compute_clusters.push((i as u32, s.repr));
                }
            }
        }
        TableIndex { comm, compute_clusters }
    }
}

impl Partial {
    fn leaf(table: Vec<LocalEvent>) -> Partial {
        Partial { table, index: None }
    }

    /// Fold `other` into `self` and return where its entries landed:
    /// `landing[i]` is the index in `self.table` of `other.table[i]`.
    /// `self`'s own entries keep their indices.
    fn absorb(&mut self, other: Partial) -> Vec<u32> {
        let table = &mut self.table;
        let index = self.index.get_or_insert_with(|| TableIndex::of(table));
        other
            .table
            .into_iter()
            .map(|e| match e {
                LocalEvent::Comm(id) => *index.comm.entry(id).or_insert_with(|| {
                    table.push(LocalEvent::Comm(id));
                    table.len() as u32 - 1
                }),
                LocalEvent::Compute(s) => {
                    let hit = index
                        .compute_clusters
                        .iter()
                        .find(|(_, repr)| counters_close(repr, &s.repr, MERGE_THRESHOLD))
                        .map(|&(g, _)| g);
                    match hit {
                        Some(g) => {
                            if let LocalEvent::Compute(mine) = &mut table[g as usize] {
                                mine.absorb_stats(&s);
                            }
                            g
                        }
                        None => {
                            let g = table.len() as u32;
                            index.compute_clusters.push((g, s.repr));
                            table.push(LocalEvent::Compute(s));
                            g
                        }
                    }
                }
            })
            .collect()
    }
}

/// Merge per-rank terminal tables into one global table via a binary
/// reduction tree, returning the table and per-rank remap vectors. Both
/// [`merge_streamed`] and [`merge_tables`] build on it.
///
/// `tables[rank]` is a rank's local table; its communication entries are
/// ids into `events`, the job's distinct events ([`StreamedTrace::events`]).
/// Each event that reaches the global table becomes an [`EventRecord`]
/// once, at the root.
///
/// Round `k` (from 0) pairs partials `2j` and `2j + 1`, and the left one
/// absorbs the right, keeping its own indices. So rank `rank` lives in
/// partial `rank >> k`, and its ids move only in the rounds where that
/// partial is a right child (odd). Each round keeps where its right
/// children landed, and each rank's remap is composed once, after the
/// last round, through those landings.
pub fn merge_rank_tables(events: &[CommEvent], tables: Vec<Vec<LocalEvent>>) -> MergedTables {
    let nranks = tables.len();
    let leaf_lens: Vec<usize> = tables.iter().map(Vec::len).collect();
    let mut level: Vec<Partial> = tables.into_iter().map(Partial::leaf).collect();
    // landings[k][j]: where pair j's right child landed in round k.
    let mut landings: Vec<Vec<Option<Vec<u32>>>> = Vec::new();
    while level.len() > 1 {
        let round = landings.len() + 1;
        let _span = siesta_obs::span!("table-merge.round", round = round, tables = level.len());
        // Each round's pair-merges are independent: fan them out over the
        // worker pool. `parallel_map_owned` returns results in pair order,
        // so the reduction tree — and therefore every global id — is the
        // same one the sequential walk builds.
        let mut pairs = Vec::with_capacity(level.len().div_ceil(2));
        let mut it = level.into_iter();
        while let Some(a) = it.next() {
            pairs.push((a, it.next()));
        }
        siesta_obs::counter("par.table_merge.pairs").add(pairs.len() as u64);
        let work: usize = pairs
            .iter()
            .map(|(a, b)| a.table.len() + b.as_ref().map_or(0, |b| b.table.len()))
            .sum();
        let merged = siesta_par::parallel_map_owned_min_work(
            pairs,
            work,
            MIN_EVENTS_TO_FAN_OUT,
            |_, (mut a, b)| {
                let landing = b.map(|b| a.absorb(b));
                (a, landing)
            },
        );
        let (next, landed) = merged.into_iter().unzip();
        level = next;
        landings.push(landed);
    }
    let root = level.pop().expect("at least one rank");
    let remaps = siesta_par::parallel_map_min_work(
        &leaf_lens,
        leaf_lens.iter().sum(),
        MIN_EVENTS_TO_FAN_OUT,
        |rank, &len| {
            let mut remap: Vec<u32> = (0..len as u32).collect();
            for (k, round) in landings.iter().enumerate() {
                if (rank >> k) & 1 == 1 {
                    let landing = round[rank >> (k + 1)].as_ref().expect("a right child landed");
                    for id in &mut remap {
                        *id = landing[*id as usize];
                    }
                }
            }
            remap
        },
    );
    let rounds = landings.len() as u32;
    let table: Vec<EventRecord> = root
        .table
        .into_iter()
        .map(|e| match e {
            LocalEvent::Comm(id) => EventRecord::Comm(events[id as usize].clone()),
            LocalEvent::Compute(s) => EventRecord::Compute(s),
        })
        .collect();
    siesta_obs::debug!(
        "table-merge: {nranks} ranks -> {} global terminals in {rounds} rounds",
        table.len()
    );
    MergedTables { nranks, table, remaps, merge_rounds: rounds }
}

/// Merge all rank tables into one global table via a binary reduction tree
/// and expand every rank's grammar into its sequence of global ids.
///
/// This is the reference for [`merge_streamed`]'s lift: each rank's
/// *local* grammar is expanded and rewritten through its composed remap,
/// so the result depends on neither the relabeling, its non-injective
/// rebuild fallback, nor its memo. `Siesta::synthesize_global` rebuilds
/// the grammars from it, as the lift's oracle. Costs the memory streaming
/// avoids: every sequence is flat.
pub fn merge_tables(st: StreamedTrace) -> GlobalTrace {
    let nranks = st.nranks;
    let raw_bytes = st.raw_bytes();
    let events = st.total_events();
    let (tables, grammars): (Vec<_>, Vec<_>) =
        st.ranks.into_iter().map(|r| (r.table, r.grammar)).unzip();
    let merged = merge_rank_tables(&st.events, tables);
    let pairs: Vec<(Arc<Grammar>, Vec<u32>)> = grammars.into_iter().zip(merged.remaps).collect();
    let seqs = siesta_par::parallel_map_owned_min_work(
        pairs,
        events,
        MIN_EVENTS_TO_FAN_OUT,
        |_, (grammar, remap)| {
            let mut seq = grammar.expand_main();
            for id in &mut seq {
                *id = remap[*id as usize];
            }
            seq
        },
    );
    GlobalTrace {
        nranks,
        table: merged.table,
        seqs,
        raw_bytes,
        merge_rounds: merged.merge_rounds,
    }
}

/// The job-wide trace a streaming ingest produces: one global terminal
/// table plus per-rank grammars whose terminals are *global* ids. The flat
/// per-rank id sequences never materialize — each rank's sequence exists
/// only as its grammar, built online while the program ran. The trace
/// store ([`crate::store`]) saves and loads exactly this.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamedGlobal {
    pub nranks: usize,
    pub table: Vec<EventRecord>,
    /// One grammar per rank, over global terminal ids. Equivalent (bit
    /// identical after expansion) to `Sequitur::build` of the rank's row in
    /// [`GlobalTrace::seqs`]. Ranks with one lifted grammar share it.
    pub grammars: Vec<Arc<Grammar>>,
    pub raw_bytes: usize,
    pub merge_rounds: u32,
}

impl StreamedGlobal {
    /// Expand one rank's full global-id sequence. Bounded by one rank's
    /// events — callers that stream ranks one at a time never hold the
    /// whole job's sequences.
    pub fn expand_rank(&self, rank: usize) -> Vec<u32> {
        self.grammars[rank].expand_main()
    }

    /// Materialize every sequence, e.g. for `text::render`. Costs the
    /// memory streaming avoids.
    pub fn to_global_trace(&self) -> GlobalTrace {
        GlobalTrace {
            nranks: self.nranks,
            table: self.table.clone(),
            seqs: (0..self.nranks).map(|r| self.expand_rank(r)).collect(),
            raw_bytes: self.raw_bytes,
            merge_rounds: self.merge_rounds,
        }
    }
}

/// True when no two local ids map to the same global id. Every local id
/// occurs in the rank's sequence (tables are hash-consed from observed
/// events), so whole-vector injectivity is exactly injectivity over the
/// symbols Sequitur saw.
fn remap_injective(remap: &[u32], nglobal: usize) -> bool {
    let mut seen = vec![false; nglobal];
    for &g in remap {
        let slot = &mut seen[g as usize];
        if *slot {
            return false;
        }
        *slot = true;
    }
    true
}

/// Merge a streamed trace: fold the per-rank tables through the binary
/// reduction tree, then lift each rank's *local-id* grammar to global ids
/// without expanding it.
///
/// Sequitur's decisions depend only on the equality pattern of its input,
/// so for an injective remap, relabeling the streamed grammar's terminals
/// yields bit-for-bit the grammar `Sequitur::build` would produce from the
/// remapped sequence (property-tested in `siesta-grammar`). Non-injective
/// remaps — distinct local compute clusters collapsing into one global
/// cluster — change the equality pattern, so those ranks (rare; counted in
/// `grammar.stream.rebuilds`) expand, remap, and rebuild.
///
/// Ranks whose local grammar and composed remap both equal an earlier
/// rank's (`siesta_hash::first_seen` on the pair, the grammar numbered by
/// `first_seen_shared`, so ranks sharing one grammar hash it once) share
/// its lifted grammar, by reference, instead of relabeling again
/// (`grammar.memo.stream_hits`).
/// Sequitur is a pure function of its input, so the local grammar pins the
/// rank's exact local stream, and the pair is the whole identity of the
/// lifted grammar.
pub fn merge_streamed(st: StreamedTrace) -> StreamedGlobal {
    let nranks = st.nranks;
    let raw_bytes = st.raw_bytes();
    let (tables, locals): (Vec<_>, Vec<_>) =
        st.ranks.into_iter().map(|r| (r.table, r.grammar)).unzip();
    let mut merged = merge_rank_tables(&st.events, tables);
    let nglobal = merged.table.len();

    // Owners: the first rank of each distinct (local grammar, remap).
    let local_of = first_seen_shared(locals.iter().map(Arc::as_ref)).class;
    let FirstSeen { class, first: owners } = first_seen(local_of.iter().zip(&merged.remaps));
    siesta_obs::counter("grammar.memo.stream_hits").add((nranks - owners.len()) as u64);

    // Lift each unique rank's grammar to global ids, in parallel. Outputs
    // land in owner order, so the result is thread-count independent.
    let _span = siesta_obs::span!("sequitur-lift", ranks = nranks, unique = owners.len());
    let mut rebuilds = 0u64;
    let items: Vec<(&Grammar, Vec<u32>, bool)> = owners
        .iter()
        .map(|&rank| {
            let g = &*locals[rank];
            let remap = std::mem::take(&mut merged.remaps[rank]);
            let injective = remap_injective(&remap, nglobal);
            if !injective {
                rebuilds += 1;
            }
            (g, remap, injective)
        })
        .collect();
    siesta_obs::counter("grammar.stream.rebuilds").add(rebuilds);
    let work: usize = items.iter().map(|(g, _, _)| g.size()).sum();
    let lifted: Vec<Arc<Grammar>> = siesta_par::parallel_map_owned_min_work(
        items,
        work,
        MIN_SYMBOLS_TO_FAN_OUT,
        |_, (g, remap, injective)| {
            Arc::new(if injective {
                g.relabel_terminals(&remap)
            } else {
                // Equality pattern changed under the merge: fall back to
                // expand → remap → rebuild, what `merge_tables` and
                // `build_rank_grammars` compute.
                let mut seq = g.expand_main();
                for id in &mut seq {
                    *id = remap[*id as usize];
                }
                Sequitur::build(&seq)
            })
        },
    );

    StreamedGlobal {
        nranks,
        table: merged.table,
        grammars: class.into_iter().map(|u| Arc::clone(&lifted[u])).collect(),
        raw_bytes,
        merge_rounds: merged.merge_rounds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{CommEvent, ComputeStats, EventRecord};

    fn comm(rel: u32) -> EventRecord {
        EventRecord::Comm(CommEvent::Send { rel, tag: 0, bytes: 64, comm: 0 })
    }

    fn compute(scale: f64, v: f64) -> EventRecord {
        EventRecord::Compute(ComputeStats::new(
            CounterVec::new(v, v, v, v, v, v) * scale,
        ))
    }

    fn trace(ranks: Vec<(Vec<EventRecord>, Vec<u32>)>) -> StreamedTrace {
        StreamedTrace::from_tables(ranks, 100)
    }

    /// (rank, remap into the partial's table) for each rank a partial
    /// covers.
    type RankRemaps = Vec<(usize, Vec<u32>)>;

    /// The per-round composition `merge_rank_tables` replaced, kept as its
    /// reference: every partial carries its ranks' remaps, and each round
    /// rewrites the absorbed partial's remaps through its landing.
    fn per_round_reference(events: &[CommEvent], tables: Vec<Vec<LocalEvent>>) -> MergedTables {
        let nranks = tables.len();
        let mut level: Vec<(Partial, RankRemaps)> = tables
            .into_iter()
            .enumerate()
            .map(|(rank, table)| {
                let identity = (0..table.len() as u32).collect();
                (Partial::leaf(table), vec![(rank, identity)])
            })
            .collect();
        let mut rounds = 0;
        while level.len() > 1 {
            rounds += 1;
            let mut next = Vec::with_capacity(level.len().div_ceil(2));
            let mut it = level.into_iter();
            while let Some((mut a, mut a_remaps)) = it.next() {
                if let Some((b, b_remaps)) = it.next() {
                    let landing = a.absorb(b);
                    for (rank, mut r) in b_remaps {
                        for id in &mut r {
                            *id = landing[*id as usize];
                        }
                        a_remaps.push((rank, r));
                    }
                }
                next.push((a, a_remaps));
            }
            level = next;
        }
        let (root, root_remaps) = level.pop().expect("at least one rank");
        let mut remaps = vec![Vec::new(); nranks];
        for (rank, r) in root_remaps {
            remaps[rank] = r;
        }
        let table = root
            .table
            .into_iter()
            .map(|e| match e {
                LocalEvent::Comm(id) => EventRecord::Comm(events[id as usize].clone()),
                LocalEvent::Compute(s) => EventRecord::Compute(s),
            })
            .collect();
        MergedTables { nranks, table, remaps, merge_rounds: rounds }
    }

    /// Seeded tables: up to five of twelve communication events and up to
    /// three compute clusters per rank, shuffled. Representatives spread
    /// over [1, 1.5]× one kernel, so many pairs sit near the 0.15 merge
    /// threshold and which cluster a reading joins depends on the tree.
    fn random_tables(nranks: usize, seed: u64) -> Vec<Vec<LocalEvent>> {
        use siesta_perfmodel::noise::{splitmix64, unit};
        let mut draw = 0u64;
        let mut next = || {
            draw += 1;
            splitmix64(seed.wrapping_mul(0x9e37_79b9) ^ draw)
        };
        (0..nranks)
            .map(|_| {
                let mut table: Vec<LocalEvent> = Vec::new();
                let ncomm = next() % 6;
                while (table.len() as u64) < ncomm {
                    let id = (next() % 12) as u32;
                    if !table.contains(&LocalEvent::Comm(id)) {
                        table.push(LocalEvent::Comm(id));
                    }
                }
                for _ in 0..next() % 4 {
                    let scale = 1.0 + 0.5 * unit(next());
                    let repr = CounterVec::new(1e6, 2e5, 3e4, 4e5, 5e3, 6e2) * scale;
                    table.push(LocalEvent::Compute(ComputeStats::new(repr)));
                }
                for i in (1..table.len()).rev() {
                    table.swap(i, (next() % (i as u64 + 1)) as usize);
                }
                table
            })
            .collect()
    }

    #[test]
    fn remaps_composed_at_the_root_equal_the_per_round_composition() {
        let events: Vec<CommEvent> =
            (0..12).map(|rel| CommEvent::Send { rel, tag: 0, bytes: 64, comm: 0 }).collect();
        for nranks in [1usize, 2, 3, 5, 8, 13, 1000] {
            for seed in [1u64, 2, 3] {
                let tables = random_tables(nranks, seed);
                let expected = per_round_reference(&events, tables.clone());
                let clustered =
                    expected.table.iter().filter(|e| !e.is_comm()).count();
                for width in [1usize, 8] {
                    let got = siesta_par::with_threads(width, || {
                        merge_rank_tables(&events, tables.clone())
                    });
                    let what = format!("P={nranks} seed={seed} width={width}");
                    assert_eq!(got.nranks, nranks, "{what}");
                    assert_eq!(got.merge_rounds, expected.merge_rounds, "{what}");
                    assert_eq!(got.table, expected.table, "{what}");
                    assert_eq!(got.remaps, expected.remaps, "{what}");
                }
                if nranks == 1000 {
                    // The threshold did split the kernel's readings.
                    assert!(clustered > 1, "P={nranks} seed={seed}: {clustered} clusters");
                }
            }
        }
    }

    #[test]
    fn duplicate_terminals_merge_across_ranks() {
        let t = trace(vec![
            (vec![comm(1), compute(1.0, 10.0)], vec![0, 1, 0]),
            (vec![comm(1), compute(1.05, 10.0)], vec![0, 1, 0]),
            (vec![comm(2)], vec![0, 0]),
            (vec![comm(1)], vec![0]),
        ]);
        let g = merge_tables(t);
        // comm(1), compute(3), comm(2): three global terminals.
        assert_eq!(g.table.len(), 3);
        assert_eq!(g.merge_rounds, 2); // log2(4)
        // Ranks 0 and 1 now share identical global sequences.
        assert_eq!(g.seqs[0], g.seqs[1]);
        // Rank 2 maps to the comm(2) terminal, wherever it landed.
        assert_eq!(g.seqs[2].len(), 2);
        assert_ne!(g.seqs[2][0], g.seqs[0][0]);
        // Compute statistics pooled: count 2, mean 15.
        let pooled = g
            .table
            .iter()
            .find_map(|e| match e {
                EventRecord::Compute(s) => Some(s),
                _ => None,
            })
            .unwrap();
        assert_eq!(pooled.count, 2);
        assert!((pooled.mean().ins - 10.25).abs() < 1e-9);
    }

    #[test]
    fn single_rank_passes_through() {
        let t = trace(vec![(vec![comm(1), comm(2)], vec![0, 1, 1])]);
        let g = merge_tables(t);
        assert_eq!(g.table.len(), 2);
        assert_eq!(g.seqs[0], vec![0, 1, 1]);
        assert_eq!(g.merge_rounds, 0);
        assert_eq!(g.raw_bytes, 100);
    }

    #[test]
    fn rounds_are_log2_of_ranks() {
        for (p, expect) in [(2usize, 1u32), (3, 2), (8, 3), (9, 4), (64, 6)] {
            let t = trace((0..p).map(|_| (vec![comm(1)], vec![0])).collect());
            assert_eq!(merge_tables(t).merge_rounds, expect, "p={p}");
        }
    }

    #[test]
    fn table_only_merge_agrees_with_sequence_rewrite() {
        // Applying the composed remaps by hand must reproduce exactly what
        // merge_tables produces — the streaming path depends on it.
        let ranks: Vec<(Vec<EventRecord>, Vec<u32>)> = vec![
            (vec![comm(1), compute(1.0, 10.0), comm(2)], vec![0, 1, 2, 0]),
            (vec![comm(2), compute(1.02, 10.0)], vec![0, 1, 1]),
            (vec![comm(3), comm(1)], vec![1, 0, 1]),
            (vec![compute(5.0, 10.0), comm(1)], vec![0, 1]),
            (vec![comm(1), compute(1.0, 10.0), comm(2)], vec![0, 1, 2, 0]),
        ];
        let st = trace(ranks.clone());
        let tables: Vec<Vec<LocalEvent>> = st.ranks.iter().map(|r| r.table.clone()).collect();
        let merged = merge_rank_tables(&st.events, tables);
        let g = merge_tables(st);
        assert_eq!(merged.table.len(), g.table.len());
        assert_eq!(merged.merge_rounds, g.merge_rounds);
        for (rank, (table, seq)) in ranks.iter().enumerate() {
            assert_eq!(merged.remaps[rank].len(), table.len());
            let rewritten: Vec<u32> =
                seq.iter().map(|&id| merged.remaps[rank][id as usize]).collect();
            assert_eq!(rewritten, g.seqs[rank], "rank {rank}");
        }
        // Identical leaves compose to identical remaps (memo-on-stream
        // shares relabeled grammars between such ranks).
        assert_eq!(merged.remaps[0], merged.remaps[4]);
    }

    #[test]
    fn streamed_merge_matches_materialized() {
        // Includes identical ranks (memo hits), a rank whose two compute
        // clusters collapse into one global cluster (non-injective remap →
        // rebuild fallback), an empty-ish rank, and two ranks that record
        // the same local stream over different events (CG's transpose
        // partners): equal local grammars under different remaps.
        let ranks: Vec<(Vec<EventRecord>, Vec<u32>)> = vec![
            (vec![comm(1), compute(1.0, 10.0), comm(2)], vec![0, 1, 2, 0, 1]),
            (vec![comm(2), compute(1.02, 10.0)], vec![0, 1, 1, 0]),
            // Two local compute clusters within the merge threshold of each
            // other's global cluster: both collapse onto terminal
            // `compute(1.0)` after the tree merge.
            (
                vec![compute(1.0, 10.0), compute(1.1, 10.0), comm(1)],
                vec![0, 2, 1, 2, 0, 1],
            ),
            (vec![comm(1), compute(1.0, 10.0), comm(2)], vec![0, 1, 2, 0, 1]),
            (vec![comm(3)], vec![0]),
            (vec![comm(6), comm(2)], vec![0, 1, 0, 1, 1]),
            (vec![comm(7), comm(2)], vec![0, 1, 0, 1, 1]),
        ];
        let st = trace(ranks.clone());
        assert_eq!(st.ranks[5].grammar, st.ranks[6].grammar);
        let g = merge_tables(trace(ranks.clone()));
        let sg = merge_streamed(st);
        assert_eq!(sg.table.len(), g.table.len());
        assert_eq!(sg.merge_rounds, g.merge_rounds);
        assert_eq!(sg.raw_bytes, g.raw_bytes);
        for rank in 0..ranks.len() {
            assert_eq!(sg.expand_rank(rank), g.seqs[rank], "rank {rank}");
            // Not just the same sequence: the same grammar Sequitur would
            // build from the expanded global sequence.
            assert_eq!(*sg.grammars[rank], Sequitur::build(&g.seqs[rank]), "rank {rank}");
        }
        assert_eq!(sg.to_global_trace().seqs, g.seqs);
        // One local stream, two lifted grammars; equal ranks share one.
        assert_ne!(sg.grammars[5], sg.grammars[6]);
        assert_eq!(sg.grammars[0], sg.grammars[3]);
    }

    #[test]
    fn remap_injectivity_detection() {
        assert!(remap_injective(&[0, 2, 1], 3));
        assert!(remap_injective(&[], 3));
        assert!(!remap_injective(&[0, 1, 0], 2));
    }

    #[test]
    fn remap_preserves_per_rank_event_streams() {
        // Whatever the table order, decoding each rank's global sequence
        // must reproduce its original record stream.
        let r0 = vec![comm(1), comm(2)];
        let r1 = vec![comm(2), comm(3)];
        let t = trace(vec![(r0.clone(), vec![0, 1, 0]), (r1.clone(), vec![1, 0, 1])]);
        let g = merge_tables(t);
        let decode = |table: &[EventRecord], seq: &[u32]| -> Vec<String> {
            seq.iter().map(|&i| format!("{:?}", table[i as usize])).collect()
        };
        assert_eq!(decode(&g.table, &g.seqs[0]), decode(&r0, &[0, 1, 0]));
        assert_eq!(decode(&g.table, &g.seqs[1]), decode(&r1, &[1, 0, 1]));
    }
}
