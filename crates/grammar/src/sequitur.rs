//! Run-length Sequitur (Section 2.5.2 of the paper).
//!
//! Classic Sequitur (Nevill-Manning & Witten 1997) scans the input once,
//! maintaining two invariants: **digram uniqueness** (no pair of adjacent
//! symbols occurs twice in the grammar) and **rule utility** (every rule is
//! referenced at least twice). The paper adds the Omnis'IO run-length
//! extension (its constraint 3): adjacent equal symbols collapse into powers
//! `a^i`, so perfectly regular loops cost *O(1)* grammar space instead of
//! *O(log n)*.
//!
//! The run-length invariant has a pleasant side effect: adjacent nodes never
//! hold the same symbol, so digram occurrences can never overlap (the `aaa`
//! corner case of classic Sequitur disappears).
//!
//! A third invariant refines utility for powers: a rule referenced once but
//! with exponent ≥ 2 still pays for itself, so only references with
//! exponent 1 trigger inlining.
//!
//! # Storage layout (DESIGN.md §13)
//!
//! The hot loop is allocation-free after warm-up:
//!
//! * Every `(Sym, exp)` pair is **interned** to a dense `u32` id on first
//!   sight; nodes store only the id, and the digram index keys on the two
//!   ids packed into one `u64` — one 8-byte hash per probe instead of a
//!   32-byte tuple hash.
//! * Rule **occurrence lists are intrusive**: each node referencing a rule
//!   links into that rule's doubly-linked list through `occ_prev`/`occ_next`
//!   fields inside the node arena. `add_ref` is a head insert, `drop_ref` an
//!   O(1) unlink — no per-rule `Vec` ever grows on the push path.
//! * The **free list is intrusive** too: a released node's `next` field
//!   chains it onto `free_head`, so recycling never touches the heap.
//!
//! With the arena, the digram index, the intern table, and the rule tables
//! pre-sized by [`Sequitur::with_rle_and_capacity`], a steady-state
//! [`Sequitur::push`] performs **zero heap allocations** — proven by the
//! counting-global-allocator test in `tests/grammar_alloc.rs`.

use siesta_hash::{fx_map_with_capacity, FxHashMap};

use crate::grammar::Grammar;
use crate::symbol::{RSym, Sym};

const NIL: u32 = u32::MAX;

/// Arena node. `id` indexes the intern table (`pairs`) holding the node's
/// `(Sym, exp)` identity; the digram index is keyed on packed id pairs, so
/// a node's grammar identity is exactly its id.
#[derive(Debug, Clone, Copy)]
struct Node {
    /// Interned `(Sym, exp)` id.
    id: u32,
    prev: u32,
    next: u32,
    /// Intrusive occurrence-list links (meaningful while this node
    /// references a rule; see `add_ref`/`drop_ref`).
    occ_prev: u32,
    occ_next: u32,
    /// `NIL` for body nodes; the owning rule for guard nodes.
    rule_of_guard: u32,
    alive: bool,
}

/// Observed live-adjacency ratios (final digram-table size over input
/// length) stay under 1/64 for trace-like inputs — the nine paper
/// workloads measure between 1/2000 and 1/200 — and under 1/4 even for
/// incompressible random inputs over small alphabets. Reserving `len / 8`
/// covers every observed workload with ≥ 2× headroom while keeping the
/// table a small fraction of the node arena; `grammar.digram.rehashes`
/// counts the growths whenever an input beats the model, so the reserve
/// can be re-derived instead of guessed (the old code capped at `1 << 16`
/// unconditionally, which forced rehash ladders on multi-million-symbol
/// unique sequences).
fn digram_reserve(len: usize) -> usize {
    (len / 8 + 16).min(1 << 21)
}

/// Incremental grammar builder. Feed terminals with [`Sequitur::push`],
/// finish with [`Sequitur::into_grammar`].
pub struct Sequitur {
    nodes: Vec<Node>,
    /// Head of the intrusive free list (chained through `Node::next`).
    free_head: u32,
    /// guard node of each rule; rule 0 is the main rule.
    guards: Vec<u32>,
    /// reference count of each rule (occurrences in other bodies).
    refs: Vec<u32>,
    /// Head of each rule's intrusive occurrence list.
    occ_head: Vec<u32>,
    /// Creation stamp of the rule currently occupying each slot. Rule
    /// slots are recycled (a long-lived builder on trace-like input mints
    /// one short-lived rule every ~2 symbols — without recycling the rule
    /// tables and intern index grow linearly with the *stream*, which is
    /// exactly what the streaming recorder exists to avoid), so survivors
    /// are renumbered in creation order at extraction; the output is
    /// byte-identical to a builder with unbounded fresh ids.
    birth: Vec<u64>,
    /// Free rule slots (rules that were inlined), reused LIFO.
    rule_free: Vec<u32>,
    /// Next creation stamp.
    births: u64,
    /// Intern table: id → `(Sym, exp)`.
    pairs: Vec<(Sym, u64)>,
    /// Live-node reference count per intern id. A pair that no node holds
    /// is unreachable (the digram index only ever keys on live
    /// adjacencies), so its id returns to `pair_free` — run-length growth
    /// would otherwise strand one dead `(sym, exp)` pair per extension.
    pair_refs: Vec<u32>,
    /// Free intern ids, reused LIFO.
    pair_free: Vec<u32>,
    /// Reverse intern index: `(sym bits, exp)` → id.
    pair_ids: FxHashMap<(u64, u64), u32>,
    /// Digram index — the hottest map of the whole pipeline (consulted on
    /// every splice). Keys are two interned ids packed into a `u64`, hashed
    /// with the deterministic FxHash.
    digrams: FxHashMap<u64, u32>,
    /// Times the digram table outgrew its reservation (flushed to the
    /// `grammar.digram.rehashes` counter by `into_grammar`).
    rehashes: u64,
    /// Largest digram-table capacity seen so far. `capacity()` also moves
    /// when a removal leaves a tombstone and a later insert reuses it, so
    /// only a rise above this mark is a growth.
    digram_cap_peak: usize,
    /// Run-length constraint enabled (the paper's configuration). Disabled
    /// only by the ablation harness, which contrasts the O(1) powers
    /// against classic Sequitur's O(log n) rule chains for regular loops.
    rle: bool,
}

impl Default for Sequitur {
    fn default() -> Self {
        Self::new()
    }
}

/// Bit-pack a symbol for the intern index: terminals in the low half,
/// non-terminals tagged at bit 32.
fn sym_bits(sym: Sym) -> u64 {
    match sym {
        Sym::T(t) => t as u64,
        Sym::N(n) => (1u64 << 32) | n as u64,
    }
}

impl Sequitur {
    pub fn new() -> Sequitur {
        Sequitur::with_rle(true)
    }

    /// Construct with the run-length extension switchable (ablation).
    pub fn with_rle(rle: bool) -> Sequitur {
        Sequitur::with_rle_and_capacity(rle, 0)
    }

    /// [`Sequitur::with_rle`] pre-sized for an input of `len` terminals:
    /// the node arena, digram index, intern table, and rule tables reserve
    /// up front instead of climbing the rehash-on-grow ladder during the
    /// one-pass scan. A correctly pre-sized builder pushes without any
    /// heap allocation (see module docs).
    pub fn with_rle_and_capacity(rle: bool, len: usize) -> Sequitur {
        // Rule slots and intern ids are recycled, so the tables scale with
        // *live* grammar state, not rules created. Worst case for the
        // intern table is an incompressible input (nothing is ever freed,
        // one `(T, 1)` pair per distinct terminal plus a digram-rate of
        // rules): `len/8` covers it with the same `1 << 21` cap as the
        // digram table (beyond it, growth is amortized doubling, not a
        // ladder). Compressible trace-like input stays far below either.
        // The additive constants keep an *empty* builder cheap: a
        // streaming recorder holds one live builder per rank, so at 10⁵–10⁶
        // ranks every kilobyte of idle reservation is a gigabyte of RSS.
        let pair_reserve = (len / 8 + 16).min(1 << 21);
        let rule_reserve = (len / 16 + 8).min(1 << 21);
        let digrams: FxHashMap<u64, u32> = fx_map_with_capacity(digram_reserve(len));
        let mut s = Sequitur {
            // Terminals enter one node each; rule bodies add less than
            // one node per substitution (freed nodes are recycled).
            nodes: Vec::with_capacity(1 + len + len / 2),
            free_head: NIL,
            guards: Vec::with_capacity(rule_reserve),
            refs: Vec::with_capacity(rule_reserve),
            occ_head: Vec::with_capacity(rule_reserve),
            birth: Vec::with_capacity(rule_reserve),
            rule_free: Vec::new(),
            births: 0,
            pairs: Vec::with_capacity(pair_reserve),
            pair_refs: Vec::with_capacity(pair_reserve),
            pair_free: Vec::new(),
            pair_ids: fx_map_with_capacity(pair_reserve),
            digram_cap_peak: digrams.capacity(),
            digrams,
            rehashes: 0,
            rle,
        };
        s.new_rule(); // rule 0: main
        s
    }

    /// Live footprint of the builder's tables, for memory diagnostics:
    /// `(node arena, intern table, digram index, rule slots)` lengths.
    /// With slot recycling every component tracks the grammar being
    /// built, not the length of the stream that built it.
    pub fn footprint(&self) -> (usize, usize, usize, usize) {
        (self.nodes.len(), self.pairs.len(), self.digrams.len(), self.guards.len())
    }

    /// Build a grammar from a whole sequence.
    pub fn build(seq: &[u32]) -> Grammar {
        let mut s = Sequitur::with_rle_and_capacity(true, seq.len());
        for &t in seq {
            s.push(t);
        }
        s.into_grammar()
    }

    /// Build without the run-length extension (classic Sequitur).
    pub fn build_classic(seq: &[u32]) -> Grammar {
        let mut s = Sequitur::with_rle_and_capacity(false, seq.len());
        for &t in seq {
            s.push(t);
        }
        s.into_grammar()
    }

    /// Append one terminal to the main rule.
    pub fn push(&mut self, terminal: u32) {
        let guard = self.guards[0];
        let id = self.intern(Sym::T(terminal), 1);
        let n = self.alloc(id);
        let last = self.nodes[guard as usize].prev;
        self.connect(last, n);
        self.connect(n, guard);
        self.check(last);
    }

    // ------------------------------------------------------------------
    // Interning and arena plumbing
    // ------------------------------------------------------------------

    /// Dense id of the `(sym, exp)` pair, minting (or recycling) one on
    /// first sight. The returned id has no reference accounted yet — every
    /// caller immediately stores it in a node (`alloc` or an id overwrite),
    /// which is where `pair_refs` picks it up.
    fn intern(&mut self, sym: Sym, exp: u64) -> u32 {
        let key = (sym_bits(sym), exp);
        if let Some(&id) = self.pair_ids.get(&key) {
            return id;
        }
        let id = match self.pair_free.pop() {
            Some(id) => {
                self.pairs[id as usize] = (sym, exp);
                id
            }
            None => {
                self.pairs.push((sym, exp));
                self.pair_refs.push(0);
                (self.pairs.len() - 1) as u32
            }
        };
        self.pair_ids.insert(key, id);
        id
    }

    /// One live node stopped holding intern id `id`; free the id once no
    /// node holds it (no digram entry can outlive its nodes, so an
    /// unreferenced pair is unreachable).
    fn pair_unref(&mut self, id: u32) {
        let r = &mut self.pair_refs[id as usize];
        *r -= 1;
        if *r == 0 {
            let (sym, exp) = self.pairs[id as usize];
            self.pair_ids.remove(&(sym_bits(sym), exp));
            self.pair_free.push(id);
        }
    }

    fn sym_of(&self, n: u32) -> Sym {
        self.pairs[self.nodes[n as usize].id as usize].0
    }

    fn exp_of(&self, n: u32) -> u64 {
        self.pairs[self.nodes[n as usize].id as usize].1
    }

    /// Allocate a live body node holding the interned pair `id`, reusing
    /// the free list (no heap traffic once the arena is warm).
    fn alloc(&mut self, id: u32) -> u32 {
        let node = Node {
            id,
            prev: NIL,
            next: NIL,
            occ_prev: NIL,
            occ_next: NIL,
            rule_of_guard: NIL,
            alive: true,
        };
        self.pair_refs[id as usize] += 1;
        if self.free_head != NIL {
            let i = self.free_head;
            self.free_head = self.nodes[i as usize].next;
            self.nodes[i as usize] = node;
            i
        } else {
            self.nodes.push(node);
            (self.nodes.len() - 1) as u32
        }
    }

    fn new_rule(&mut self) -> u32 {
        let rule = match self.rule_free.pop() {
            Some(r) => r,
            None => {
                self.guards.push(NIL);
                self.refs.push(0);
                self.occ_head.push(NIL);
                self.birth.push(0);
                (self.guards.len() - 1) as u32
            }
        };
        let id = self.intern(Sym::N(rule), 1);
        let g = self.alloc(id);
        self.nodes[g as usize].rule_of_guard = rule;
        self.nodes[g as usize].prev = g;
        self.nodes[g as usize].next = g;
        self.guards[rule as usize] = g;
        self.refs[rule as usize] = 0;
        self.occ_head[rule as usize] = NIL;
        self.birth[rule as usize] = self.births;
        self.births += 1;
        rule
    }

    fn connect(&mut self, a: u32, b: u32) {
        self.nodes[a as usize].next = b;
        self.nodes[b as usize].prev = a;
    }

    fn next(&self, n: u32) -> u32 {
        self.nodes[n as usize].next
    }

    fn prev(&self, n: u32) -> u32 {
        self.nodes[n as usize].prev
    }

    fn is_guard(&self, n: u32) -> bool {
        self.nodes[n as usize].rule_of_guard != NIL
    }

    /// Digram key at `left`: both interned ids packed into one `u64`.
    fn key_at(&self, left: u32) -> Option<u64> {
        if self.is_guard(left) {
            return None;
        }
        let right = self.next(left);
        if self.is_guard(right) {
            return None;
        }
        Some(
            ((self.nodes[left as usize].id as u64) << 32)
                | self.nodes[right as usize].id as u64,
        )
    }

    /// Unregister the digram starting at `left`, if the index points here.
    fn forget(&mut self, left: u32) {
        if let Some(key) = self.key_at(left) {
            if self.digrams.get(&key) == Some(&left) {
                self.digrams.remove(&key);
            }
        }
    }

    /// Insert into the digram index, counting table growths.
    fn digram_insert(&mut self, key: u64, left: u32) {
        self.digrams.insert(key, left);
        let cap = self.digrams.capacity();
        if cap > self.digram_cap_peak {
            self.digram_cap_peak = cap;
            self.rehashes += 1;
        }
    }

    /// Link `node` (which references `rule`) into the rule's intrusive
    /// occurrence list. O(1), allocation-free.
    fn add_ref(&mut self, rule: u32, node: u32) {
        self.refs[rule as usize] += 1;
        let head = self.occ_head[rule as usize];
        self.nodes[node as usize].occ_prev = NIL;
        self.nodes[node as usize].occ_next = head;
        if head != NIL {
            self.nodes[head as usize].occ_prev = node;
        }
        self.occ_head[rule as usize] = node;
    }

    /// Unlink `node` from `rule`'s occurrence list. O(1), allocation-free
    /// (the old `Vec<Vec<u32>>` representation paid an O(occurrences) scan
    /// here and a heap allocation per growth in `add_ref`).
    fn drop_ref(&mut self, rule: u32, node: u32) {
        self.refs[rule as usize] -= 1;
        let Node { occ_prev, occ_next, .. } = self.nodes[node as usize];
        if occ_prev != NIL {
            self.nodes[occ_prev as usize].occ_next = occ_next;
        } else {
            self.occ_head[rule as usize] = occ_next;
        }
        if occ_next != NIL {
            self.nodes[occ_next as usize].occ_prev = occ_prev;
        }
        self.nodes[node as usize].occ_prev = NIL;
        self.nodes[node as usize].occ_next = NIL;
    }

    /// Return a node to the intrusive free list.
    fn release(&mut self, n: u32) {
        let id = self.nodes[n as usize].id;
        self.nodes[n as usize].alive = false;
        self.nodes[n as usize].next = self.free_head;
        self.free_head = n;
        self.pair_unref(id);
    }

    // ------------------------------------------------------------------
    // Invariant enforcement
    // ------------------------------------------------------------------

    /// Re-establish the invariants for the adjacency `(left, left.next)`.
    fn check(&mut self, left: u32) {
        if left == NIL || !self.nodes[left as usize].alive || self.is_guard(left) {
            return;
        }
        let right = self.next(left);
        if self.is_guard(right) {
            return;
        }
        // Constraint 3: run-length merge of equal symbols.
        if self.rle && self.sym_of(left) == self.sym_of(right) {
            self.merge_run(left, right);
            return;
        }
        let key = self.key_at(left).expect("both non-guard");
        match self.digrams.get(&key) {
            None => {
                self.digram_insert(key, left);
            }
            Some(&existing) if existing == left => {}
            Some(&existing) => {
                // Without RLE, equal adjacent symbols survive, so the `aaa`
                // overlap case of classic Sequitur can occur; overlapping
                // occurrences must not fold.
                if !self.rle
                    && (self.next(existing) == left || self.next(left) == existing)
                {
                    return;
                }
                // Stale index entries cannot exist: `forget` runs before
                // every splice. With RLE, occurrences cannot overlap
                // (adjacent symbols are always distinct).
                self.handle_match(existing, left);
            }
        }
    }

    /// Merge `right` into `left` (equal symbols), then repair both seams.
    fn merge_run(&mut self, left: u32, right: u32) {
        // Digrams involving the three affected adjacencies change identity.
        self.forget(self.prev(left));
        self.forget(left);
        self.forget(right);
        let mut dropped: Option<u32> = None;
        let sym = self.sym_of(left);
        if let Sym::N(rule) = sym {
            // One node's worth of reference disappears (exponents fold).
            self.drop_ref(rule, right);
            dropped = Some(rule);
        }
        let exp = self.exp_of(left) + self.exp_of(right);
        let old = self.nodes[left as usize].id;
        let new = self.intern(sym, exp);
        self.nodes[left as usize].id = new;
        self.pair_refs[new as usize] += 1;
        self.pair_unref(old);
        let after = self.next(right);
        self.connect(left, after);
        self.release(right);
        // Left's digram identity changed: re-check both sides.
        self.check(self.prev(left));
        if self.nodes[left as usize].alive {
            self.check(left);
        }
        if let Some(r) = dropped {
            // Note: the surviving run node still references r, so a drop to
            // one reference with exponent ≥ 2 stays useful; enforce_utility
            // applies the exponent-aware rule.
            self.enforce_utility(r);
        }
    }

    /// Two equal digrams exist: at `existing` and at `fresh`.
    fn handle_match(&mut self, existing: u32, fresh: u32) {
        let e_prev = self.prev(existing);
        let e_next_next = self.next(self.next(existing));
        if self.is_guard(e_prev)
            && self.is_guard(e_next_next)
            && self.nodes[e_prev as usize].rule_of_guard == self.nodes[e_next_next as usize].rule_of_guard
        {
            // The existing occurrence is exactly a rule body: reuse it.
            let rule = self.nodes[e_prev as usize].rule_of_guard;
            self.substitute(fresh, rule);
            self.enforce_utility(rule);
        } else {
            // Create a new rule from the digram, substitute both sites.
            let key = self.key_at(existing).expect("valid digram");
            let id1 = self.nodes[existing as usize].id;
            let id2 = self.nodes[self.next(existing) as usize].id;
            let (s1, _) = self.pairs[id1 as usize];
            let (s2, _) = self.pairs[id2 as usize];
            let rule = self.new_rule();
            let g = self.guards[rule as usize];
            let a = self.alloc(id1);
            let b = self.alloc(id2);
            self.connect(g, a);
            self.connect(a, b);
            self.connect(b, g);
            if let Sym::N(r) = s1 {
                self.add_ref(r, a);
            }
            if let Sym::N(r) = s2 {
                self.add_ref(r, b);
            }
            // The rule body now owns this digram.
            self.digram_insert(key, a);
            // Substitute the existing occurrence first, then the fresh one.
            self.substitute(existing, rule);
            // Cascades from the first substitution can in principle consume
            // the fresh occurrence; only substitute it if it still stands.
            if self.nodes[fresh as usize].alive && self.key_at(fresh) == Some(key) {
                self.substitute(fresh, rule);
            }
            // Newly referenced child rules may have dropped to one use.
            if let Sym::N(r) = s1 {
                self.enforce_utility(r);
            }
            if let Sym::N(r) = s2 {
                self.enforce_utility(r);
            }
            self.enforce_utility(rule);
        }
    }

    /// Replace the digram starting at `left` with a reference to `rule`.
    fn substitute(&mut self, left: u32, rule: u32) {
        let right = self.next(left);
        let before = self.prev(left);
        let after = self.next(right);
        self.forget(before);
        self.forget(left);
        self.forget(right);
        let mut dropped = [NIL; 2];
        for (i, n) in [left, right].into_iter().enumerate() {
            if let Sym::N(r) = self.sym_of(n) {
                self.drop_ref(r, n);
                dropped[i] = r;
            }
        }
        let id = self.intern(Sym::N(rule), 1);
        let nn = self.alloc(id);
        self.add_ref(rule, nn);
        self.connect(before, nn);
        self.connect(nn, after);
        self.release(left);
        self.release(right);
        // Repair seams: first the left one (may run-merge nn away).
        self.check(before);
        if self.nodes[nn as usize].alive {
            self.check(nn);
        }
        // Rules that lost a reference here may have fallen to one use.
        for r in dropped {
            if r != NIL {
                self.enforce_utility(r);
            }
        }
    }

    /// Inline `rule` if it has a single remaining reference with exponent 1
    /// (a reference with exponent ≥ 2 still pays for itself under RLE).
    fn enforce_utility(&mut self, rule: u32) {
        if rule == 0
            || self.guards[rule as usize] == NIL
            || self.refs[rule as usize] != 1
        {
            return;
        }
        let site = self.occ_head[rule as usize];
        if !self.nodes[site as usize].alive || self.exp_of(site) != 1 {
            return;
        }
        let guard = self.guards[rule as usize];
        let first = self.next(guard);
        let last = self.prev(guard);
        if first == guard {
            return; // empty rule body; nothing to inline
        }
        let before = self.prev(site);
        let after = self.next(site);
        self.forget(before);
        self.forget(site);
        self.drop_ref(rule, site);
        // Move the body nodes wholesale (their internal digram index
        // entries stay valid because the node ids do not change).
        self.connect(before, first);
        self.connect(last, after);
        self.release(site);
        self.release(guard);
        self.guards[rule as usize] = NIL;
        // The slot is free for reuse. Stale `enforce_utility` calls on a
        // recycled id are harmless: they run only between cascades, when
        // the utility invariant already holds for every live rule.
        self.rule_free.push(rule);
        // Repair the seams.
        self.check(before);
        // `last` may have died if the whole body merged leftward; guard it.
        if self.nodes[last as usize].alive {
            self.check(last);
        }
    }

    // ------------------------------------------------------------------
    // Extraction
    // ------------------------------------------------------------------

    /// Convert into an immutable [`Grammar`], renumbering surviving rules
    /// densely (main rule stays rule 0).
    pub fn into_grammar(self) -> Grammar {
        // Map surviving rule slots to dense ids in *creation order* (the
        // birth stamp, not the slot number): slot recycling hands old
        // numbers to young rules, and this renumbering keeps the output
        // byte-identical to a builder that never recycled anything.
        let mut by_birth: Vec<(u64, u32)> = self
            .guards
            .iter()
            .enumerate()
            .filter(|&(_, &g)| g != NIL)
            .map(|(rule, _)| (self.birth[rule], rule as u32))
            .collect();
        by_birth.sort_unstable();
        let mut remap: FxHashMap<u32, u32> = fx_map_with_capacity(by_birth.len());
        let mut order: Vec<u32> = Vec::with_capacity(by_birth.len());
        for &(_, rule) in &by_birth {
            remap.insert(rule, order.len() as u32);
            order.push(rule);
        }

        // Rule churn and digram-table metrics, flushed once per build.
        siesta_obs::counter("grammar.rules_created").add(self.births);
        siesta_obs::counter("grammar.rules_inlined").add(self.births - order.len() as u64);
        siesta_obs::counter("grammar.digram.rehashes").add(self.rehashes);
        siesta_obs::histogram("grammar.digram_table_size").record(self.digrams.len() as u64);
        let mut rules = Vec::with_capacity(order.len());
        for &rule in &order {
            let g = self.guards[rule as usize];
            let mut body = Vec::new();
            let mut n = self.nodes[g as usize].next;
            while n != g {
                let node = &self.nodes[n as usize];
                let (sym, exp) = self.pairs[node.id as usize];
                let sym = match sym {
                    Sym::T(t) => Sym::T(t),
                    Sym::N(r) => Sym::N(*remap.get(&r).expect("live rule referenced")),
                };
                body.push(RSym::new(sym, exp));
                n = node.next;
            }
            rules.push(body);
        }
        Grammar { rules }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(seq: &[u32]) -> Grammar {
        Sequitur::build(seq)
    }

    #[test]
    fn empty_and_singleton() {
        let g = build(&[]);
        assert_eq!(g.rules.len(), 1);
        assert!(g.rules[0].is_empty());
        let g = build(&[7]);
        assert_eq!(g.expand_main(), vec![7]);
    }

    #[test]
    fn pure_repetition_is_constant_size() {
        // The paper's aaaa... example: with RLE the whole thing is one
        // run-length symbol, not a log-depth rule chain.
        let seq = vec![5u32; 1000];
        let g = build(&seq);
        assert_eq!(g.expand_main(), seq);
        assert_eq!(g.rules.len(), 1);
        assert_eq!(g.rules[0].len(), 1);
        assert_eq!(g.rules[0][0].exp, 1000);
    }

    #[test]
    fn repeated_pair_becomes_rule_with_power() {
        // abababab → main: R1^4, R1 → a b
        let seq: Vec<u32> = (0..8).map(|i| i % 2).collect();
        let g = build(&seq);
        assert_eq!(g.expand_main(), seq);
        assert_eq!(g.rules.len(), 2);
        assert_eq!(g.rules[0].len(), 1);
        assert_eq!(g.rules[0][0].exp, 4);
        assert_eq!(g.rules[1].len(), 2);
    }

    #[test]
    fn nested_loop_structure_compresses_hierarchically() {
        // (a b b b c){20} — an iteration with an inner loop.
        let mut seq = Vec::new();
        for _ in 0..20 {
            seq.push(1);
            seq.extend([2, 2, 2]);
            seq.push(3);
        }
        let g = build(&seq);
        assert_eq!(g.expand_main(), seq);
        // Grammar should be tiny: a rule for (a b^3 c) raised to the 20th.
        assert!(g.size() <= 6, "grammar too large: {g:?}");
    }

    #[test]
    fn sequitur_classic_example() {
        // "abcdbc" → S → a A d A, A → b c  (classic Sequitur result)
        let g = build(&[1, 2, 3, 4, 2, 3]);
        assert_eq!(g.expand_main(), vec![1, 2, 3, 4, 2, 3]);
        assert_eq!(g.rules.len(), 2);
        assert_eq!(g.rules[1].len(), 2);
    }

    #[test]
    fn invariants_hold_on_structured_input() {
        // A trace-like input: iterations with a rare special phase.
        let mut seq = Vec::new();
        for i in 0..50 {
            seq.extend([10, 11, 12, 11, 13]);
            if i % 10 == 9 {
                seq.extend([20, 21]);
            }
        }
        let g = build(&seq);
        assert_eq!(g.expand_main(), seq);
        g.assert_invariants();
        // Far smaller than the input.
        assert!(g.size() < seq.len() / 4, "size {} vs input {}", g.size(), seq.len());
    }

    #[test]
    fn random_input_round_trips() {
        // Pseudo-random (incompressible) input: correctness matters more
        // than compression here.
        let mut x = 12345u64;
        let seq: Vec<u32> = (0..500)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((x >> 33) % 17) as u32
            })
            .collect();
        let g = build(&seq);
        assert_eq!(g.expand_main(), seq);
        g.assert_invariants();
    }

    #[test]
    fn long_runs_inside_repeats() {
        // a^5 b a^5 b a^5 b → rule (a^5 b)^3.
        let mut seq = Vec::new();
        for _ in 0..3 {
            seq.extend([1; 5]);
            seq.push(2);
        }
        let g = build(&seq);
        assert_eq!(g.expand_main(), seq);
        assert!(g.size() <= 4, "expected compact powers: {g:?}");
    }

    #[test]
    fn classic_mode_round_trips_and_uses_log_rules_for_runs() {
        // The Omnis'IO observation the paper cites: a run of n identical
        // symbols is one power under RLE, but a log-depth rule chain in
        // classic Sequitur.
        let seq = vec![5u32; 1024];
        let classic = Sequitur::build_classic(&seq);
        assert_eq!(classic.expand_main(), seq);
        let rle = Sequitur::build(&seq);
        assert_eq!(rle.size(), 1);
        assert!(
            classic.rules.len() >= 9,
            "classic should need ~log2(1024) rules, got {}",
            classic.rules.len()
        );
        assert!(classic.size() > 4 * rle.size());
    }

    #[test]
    fn classic_mode_handles_overlap_case() {
        // aaa...: overlapping digrams must not fold into broken rules.
        for n in [2usize, 3, 4, 5, 7, 9] {
            let seq = vec![1u32; n];
            let g = Sequitur::build_classic(&seq);
            assert_eq!(g.expand_main(), seq, "n={n}");
        }
        // Mixed runs.
        let seq = vec![1, 1, 1, 2, 1, 1, 1, 2, 1, 1];
        let g = Sequitur::build_classic(&seq);
        assert_eq!(g.expand_main(), seq);
    }

    #[test]
    fn utility_rule_keeps_powered_single_references() {
        // (ab)^2 appears once as a run: rule referenced once with exp 2
        // must survive (it saves space), not be inlined.
        let g = build(&[1, 2, 1, 2]);
        assert_eq!(g.expand_main(), vec![1, 2, 1, 2]);
        assert_eq!(g.rules.len(), 2);
        assert_eq!(g.rules[0][0].exp, 2);
        g.assert_invariants();
    }

    #[test]
    fn occurrence_lists_survive_heavy_churn() {
        // Interleaved phrases force rules to gain and lose references many
        // times (add_ref/drop_ref/unlink churn on the intrusive lists);
        // the grammar must still round-trip and satisfy every invariant.
        let mut seq = Vec::new();
        for i in 0u32..200 {
            match i % 5 {
                0 => seq.extend([1, 2, 3]),
                1 => seq.extend([2, 3, 4]),
                2 => seq.extend([1, 2, 3, 4]),
                3 => seq.extend([4, 1, 2]),
                _ => seq.extend([3, 4, 1]),
            }
        }
        let g = build(&seq);
        assert_eq!(g.expand_main(), seq);
        g.assert_invariants();
    }

    /// Deterministic pseudo-random sequence over a small alphabet with
    /// SPMD-trace-like repetition (phrases repeated with variations).
    fn lcg_seq(seed: u64, len: usize, alphabet: u32) -> Vec<u32> {
        let mut x = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
        let mut step = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut seq = Vec::with_capacity(len);
        while seq.len() < len {
            let phrase: Vec<u32> =
                (0..(step() % 6 + 2)).map(|_| (step() % alphabet as u64) as u32).collect();
            for _ in 0..(step() % 4 + 1) {
                seq.extend_from_slice(&phrase);
            }
        }
        seq.truncate(len);
        seq
    }

    #[test]
    fn unsized_incremental_push_matches_presized_build() {
        // Streaming ingest cannot pre-size the builder (the stream length
        // is unknown); capacity must only affect allocation, never one
        // grammar decision.
        for seed in 1..6u64 {
            let seq = lcg_seq(seed, 4000, 12);
            let mut s = Sequitur::with_rle(true);
            for &t in &seq {
                s.push(t);
            }
            assert_eq!(s.into_grammar(), Sequitur::build(&seq), "seed {seed}");
        }
    }

    #[test]
    fn digram_rehashes_count_growth_not_tombstone_reuse() {
        // 200 live keys churning in a table with room for them: removals
        // leave tombstones and inserts reuse them, which moves
        // `capacity()` back and forth but never grows the table. Keys are
        // packed like the real index (`left << 32 | right`, few distinct
        // right ids), which clusters them into long probe runs — the case
        // where a removal leaves a tombstone rather than an empty slot.
        let mut s = Sequitur::with_rle_and_capacity(true, 3200);
        let room = s.digrams.capacity();
        assert!(room >= 400, "table too small for the churn: {room}");
        let key = |k: u64| (k << 32) | (k % 4);
        for k in 0..200u64 {
            s.digram_insert(key(k), 0);
        }
        for k in 200..40_000u64 {
            s.digrams.remove(&key(k - 200));
            s.digram_insert(key(k), 0);
        }
        assert_eq!(s.digrams.len(), 200);
        assert_eq!(s.rehashes, 0, "steady-size churn counted as growth");
        // A real growth still counts.
        for k in 40_000..40_000 + 2 * room as u64 {
            s.digram_insert(key(k), 0);
        }
        assert!(s.rehashes > 0);
    }

    #[test]
    fn relabel_commutes_with_build() {
        // The streaming-path contract: for injective remaps, relabeling a
        // built grammar's terminals equals building over the remapped
        // sequence. (Sequitur sees only equality patterns, and an
        // injective map preserves them exactly.)
        for seed in 1..6u64 {
            let seq = lcg_seq(seed, 4000, 12);
            // An injective, order-scrambling remap of the 12-symbol table.
            let remap: Vec<u32> = (0..12u32).map(|t| (t * 7 + 3) % 12 + 100 * (t % 3)).collect();
            {
                let mut seen: Vec<u32> = remap.clone();
                seen.sort_unstable();
                seen.dedup();
                assert_eq!(seen.len(), remap.len(), "remap must be injective");
            }
            let relabeled = Sequitur::build(&seq).relabel_terminals(&remap);
            let mapped: Vec<u32> = seq.iter().map(|&t| remap[t as usize]).collect();
            assert_eq!(relabeled, Sequitur::build(&mapped), "seed {seed}");
            relabeled.assert_invariants();
        }
    }
}

