//! Allocation contract of the arena-backed Sequitur (DESIGN.md §13):
//! a builder pre-sized with [`Sequitur::with_rle_and_capacity`] performs
//! **zero heap allocations** on the steady-state `push` path. Nodes come
//! from the slab's intrusive free list, occurrence bookkeeping lives
//! inside the nodes, and the intern/digram tables are reserved up front —
//! so after a warm-up prefix has faulted in the tables, compressing the
//! rest of the trace touches the allocator not at all.
//!
//! Verified with a counting global allocator (same harness pattern as
//! `tests/obs_flight_recorder.rs`): the count is thread-local so the test
//! harness's other threads cannot pollute it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use siesta_grammar::{merge_grammars, Grammar, MergeConfig, Sequitur};
use siesta_mpisim::World;
use siesta_perfmodel::{platform_b, Machine, MpiFlavor};
use siesta_trace::{Recorder, TraceConfig};
use siesta_workloads::halo::halo2d_body;

/// Counts allocations made by the current thread while armed, and the
/// bytes it holds.
struct CountingAlloc;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static LOCAL_ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes the thread allocated minus bytes it freed while armed, and
    /// the peak of that difference.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

/// Record `allocs` allocations that changed the live heap by `bytes`, if
/// the current thread is armed. Every cell is a `Cell` (no destructor,
/// const-init), so touching them from inside the allocator cannot recurse
/// into it.
fn record(allocs: u64, bytes: i64) {
    let _ = ARMED.try_with(|a| {
        if a.get() {
            let _ = LOCAL_ALLOCS.try_with(|c| c.set(c.get() + allocs));
            let _ = LIVE.try_with(|live| {
                live.set(live.get() + bytes);
                let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
            });
        }
    });
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        record(1, l.size() as i64);
        System.alloc(l)
    }

    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        record(0, -(l.size() as i64));
        System.dealloc(p, l)
    }

    unsafe fn realloc(&self, p: *mut u8, l: Layout, n: usize) -> *mut u8 {
        record(1, n as i64 - l.size() as i64);
        System.realloc(p, l, n)
    }

    unsafe fn alloc_zeroed(&self, l: Layout) -> *mut u8 {
        record(1, l.size() as i64);
        System.alloc_zeroed(l)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations the current thread makes while running `f`.
fn allocs_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    LOCAL_ALLOCS.with(|c| c.set(0));
    ARMED.with(|a| a.set(true));
    let out = f();
    ARMED.with(|a| a.set(false));
    (out, LOCAL_ALLOCS.with(Cell::get))
}

/// Allocations the current thread makes while running `f`, and the peak
/// of the bytes it holds over what it held before.
fn footprint_during<T>(f: impl FnOnce() -> T) -> (T, u64, i64) {
    LIVE.with(|c| c.set(0));
    PEAK.with(|c| c.set(0));
    let (out, allocs) = allocs_during(f);
    (out, allocs, PEAK.with(Cell::get))
}

/// A trace-like sequence: nested loops with occasional irregularities —
/// the shape the Sequitur hot loop sees from real SPMD traces (heavy rule
/// churn: runs merge, rules form and die by the utility constraint).
fn trace_like_sequence(n: usize) -> Vec<u32> {
    let mut seq = Vec::with_capacity(n);
    let mut i = 0;
    while seq.len() < n {
        seq.extend([1, 2, 3, 2, 4]);
        seq.extend(std::iter::repeat_n(5, 8));
        if i % 10 == 9 {
            seq.extend([20, 21]);
        }
        i += 1;
    }
    seq.truncate(n);
    seq
}

#[test]
fn steady_state_push_performs_zero_heap_allocations() {
    let seq = trace_like_sequence(40_000);
    // Pre-size for the whole input, warm up on the first half — by then
    // every vocabulary symbol has been interned and the reserved tables
    // are live — and demand allocation-free compression of the rest.
    let mut s = Sequitur::with_rle_and_capacity(true, seq.len());
    let (half_a, half_b) = seq.split_at(seq.len() / 2);
    for &t in half_a {
        s.push(t);
    }
    let (_, n) = allocs_during(|| {
        for &t in half_b {
            s.push(t);
        }
    });
    assert_eq!(
        n, 0,
        "steady-state push allocated {n} times over {} symbols",
        half_b.len()
    );

    // The builder still produces the exact same grammar as a cold build.
    let warm = s.into_grammar();
    let cold = Sequitur::build(&seq);
    assert_eq!(warm.rules, cold.rules, "pre-sized build must not change the grammar");
}

#[test]
fn zero_alloc_push_holds_with_rle_off_too() {
    // Classic Sequitur (ablation path) shares the arena machinery.
    let seq = trace_like_sequence(20_000);
    let mut s = Sequitur::with_rle_and_capacity(false, seq.len());
    let (half_a, half_b) = seq.split_at(seq.len() / 2);
    for &t in half_a {
        s.push(t);
    }
    let (_, n) = allocs_during(|| {
        for &t in half_b {
            s.push(t);
        }
    });
    assert_eq!(n, 0, "classic-mode steady-state push allocated {n} times");
}

#[test]
fn streaming_recorder_allocates_one_block_at_any_rank_count() {
    // A rank's online builder is created at its first flush, its sink
    // lives inline, its normalizer answers MPI_COMM_WORLD without a map
    // entry, and the job's event interner starts empty: an idle rank
    // allocates nothing. The one allocation is the per-rank vector itself.
    for nranks in [1024usize, 4096] {
        let (rec, n) = allocs_during(|| Recorder::new_streaming(nranks, TraceConfig::default()));
        drop(rec);
        assert!(n <= 1, "new_streaming({nranks}) allocated {n} times, over 1 in all");
    }
}

#[test]
fn grammar_merge_allocates_per_distinct_grammar_not_per_rank() {
    // An SPMD job of three streams, shared by reference as the lift hands
    // them over: the first rank, the last rank and the interior. The merge
    // maps each distinct grammar once and builds each rank set in one
    // pass, so its allocations do not grow with the rank count.
    let body = |tail: u32| -> Grammar {
        let mut seq: Vec<u32> = std::iter::repeat_n([1u32, 2, 3, 2, 4], 20).flatten().collect();
        seq.push(tail);
        Sequitur::build(&seq)
    };
    let kinds = [body(5), body(6), body(7)].map(Arc::new);
    let job = |nranks: usize| -> Vec<Arc<Grammar>> {
        (0..nranks)
            .map(|rank| match rank {
                0 => Arc::clone(&kinds[0]),
                r if r + 1 == nranks => Arc::clone(&kinds[2]),
                _ => Arc::clone(&kinds[1]),
            })
            .collect()
    };
    let config = MergeConfig::default();
    // Registers the merge's gauges, which allocates once per process.
    merge_grammars(&job(8), &config);
    let (small, n_small) = allocs_during(|| merge_grammars(&job(64), &config));
    let (large, n_large) = allocs_during(|| merge_grammars(&job(4096), &config));
    // `job` itself allocates once, for its vector.
    assert_eq!(
        n_large, n_small,
        "4,096 ranks allocated {n_large} times, 64 ranks {n_small}"
    );
    assert_eq!(large.rules, small.rules);
    assert_eq!(large.mains.len(), small.mains.len());
}

#[test]
fn traced_halo_world_costs_under_two_kilobytes_per_rank() {
    // 4,096 ranks of 13 calls each, traced: at its peak the run holds
    // per-rank state, each rank's future, mailbox and recorder state. At
    // width 1 every rank runs on this thread, so the counts see all of it.
    // One ordered buffer per mailbox, a short list of sequence counters
    // and a recorder state whose handle maps wait for their first use
    // measure 1,951 B and 11.06 allocations per rank; four mailbox
    // containers, two counter maps and eager handle maps measured 2,627 B
    // and 14.06.
    const RANKS: usize = 4096;
    let machine = Machine::new(platform_b(), MpiFlavor::OpenMpi);
    let (trace, allocs, peak) = siesta_par::with_threads(1, || {
        footprint_during(|| {
            let rec = Arc::new(Recorder::new_streaming(RANKS, TraceConfig::default()));
            World::new(machine, RANKS).with_hook(rec.clone()).run(halo2d_body(3, 4096));
            rec.finish_streamed()
        })
    });
    assert_eq!(trace.total_events(), RANKS * 16);
    assert!(peak <= 2048 * RANKS as i64, "peak live heap {peak} B over {RANKS} ranks");
    assert!(allocs <= 12 * RANKS as u64, "{allocs} allocations over {RANKS} ranks");
}
