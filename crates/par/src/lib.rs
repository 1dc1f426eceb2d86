//! `siesta-par` — a deterministic persistent worker pool (std-only).
//!
//! The synthesis pipeline is embarrassingly parallel along three axes:
//! per-rank Sequitur construction, per-unique-event QP solves, and the
//! pair-merges inside each round of the log₂P terminal-table tree. This
//! crate provides the one primitive all three need: run N independent
//! tasks on a bounded set of worker threads and collect results **in
//! index order**, so the output is bit-identical regardless of the
//! thread count or OS scheduling.
//!
//! Workers are spawned lazily on first demand and then **parked between
//! regions** (see the `pool` module): a parallel region costs a mutex
//! hand-off and a condvar wake instead of the ~100µs-per-thread scoped
//! spawns the first version paid. The caller always participates, so width 1 of
//! every region is the caller's own thread.
//!
//! # Determinism contract
//!
//! * Results land in slots addressed by task index; scheduling order can
//!   never reorder them.
//! * Workers never read the clock, an RNG, or any global mutable state of
//!   the pipeline — the task closure receives only its index (and item).
//! * `threads() == 1` (or a single task) runs inline on the caller's
//!   thread: the sequential path IS the parallel path at width one, not a
//!   separate code path that could drift.
//! * A panicking task propagates to the caller after the region drains,
//!   never silently drops results.
//!
//! The process-global width is configured once at startup (`--threads N`
//! on the CLI, [`set_threads`] programmatically); `0` means "use
//! [`available_parallelism`]".

mod pool;

use std::cell::UnsafeCell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Configured worker count. 0 = auto (available parallelism).
static THREADS: AtomicUsize = AtomicUsize::new(0);

/// What the OS reports as usable parallelism (1 if unknown).
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Set the process-global worker count. `0` restores the default
/// (auto-detect). Called by the CLI's `--threads` flag; tests and benches
/// call it directly around measured regions.
pub fn set_threads(n: usize) {
    THREADS.store(n, Ordering::Relaxed);
}

/// The resolved worker count parallel regions will use right now.
pub fn threads() -> usize {
    match THREADS.load(Ordering::Relaxed) {
        0 => available_parallelism(),
        n => n,
    }
}

/// Index-addressed result slots shared with pool workers. Only distinct
/// indices are ever written (each task index is claimed exactly once from
/// the shared counter), and the caller reads them only after the region
/// has drained, so the aliasing is benign.
struct Slots<'a, R>(&'a [UnsafeCell<Option<R>>]);

unsafe impl<R: Send> Sync for Slots<'_, R> {}

impl<R> Slots<'_, R> {
    /// Accessor (rather than field access) so closures capture the whole
    /// `Sync` wrapper, not the raw `UnsafeCell` slice inside it.
    fn slot(&self, i: usize) -> *mut Option<R> {
        self.0[i].get()
    }
}

/// Run `n_tasks` independent tasks on the calling thread plus at most
/// `nthreads - 1` pool workers; `task(i)` computes result `i`. Results
/// are returned in index order.
///
/// With `nthreads <= 1` or fewer than two tasks everything runs inline on
/// the calling thread — no hand-off, no atomics, identical results.
pub fn run_tasks<R, F>(n_tasks: usize, nthreads: usize, task: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    // `in_worker`: a nested region started from inside a pool task runs
    // inline rather than waiting on the pool it is itself occupying.
    if nthreads <= 1 || n_tasks <= 1 || pool::in_worker() {
        return (0..n_tasks).map(task).collect();
    }
    let nworkers = nthreads.min(n_tasks);
    let next = AtomicUsize::new(0);
    let slots: Vec<UnsafeCell<Option<R>>> =
        (0..n_tasks).map(|_| UnsafeCell::new(None)).collect();
    let slots_ref = Slots(&slots);
    let panicked: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);
    let runner = || {
        // Work-steal from a shared counter: coarse tasks with skewed
        // costs (rank 0's sequence is often the odd one out) balance
        // better than static chunking.
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n_tasks {
                break;
            }
            match panic::catch_unwind(AssertUnwindSafe(|| task(i))) {
                Ok(r) => unsafe { *slots_ref.slot(i) = Some(r) },
                Err(payload) => {
                    let mut first = panicked.lock().unwrap();
                    if first.is_none() {
                        *first = Some(payload);
                    }
                    // Abandon unclaimed tasks: the whole region is about
                    // to propagate the panic anyway.
                    next.store(n_tasks, Ordering::Relaxed);
                }
            }
        }
    };
    pool::run_region(nworkers - 1, &runner);
    if let Some(payload) = panicked.into_inner().unwrap() {
        panic::resume_unwind(payload);
    }
    slots
        .into_iter()
        .map(|c| c.into_inner().expect("every slot filled"))
        .collect()
}

/// Map `f` over `items` in parallel at the configured width; results in
/// input order. `f` receives `(index, &item)`.
pub fn parallel_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    run_tasks(items.len(), threads(), |i| f(i, &items[i]))
}

/// [`parallel_map`] with a small-work guard: runs inline (width 1) when
/// `est_work` — any deterministic, data-derived work estimate the caller
/// picks (symbols, events, solves) — is below `min_work`. Even with the
/// persistent pool a region costs a mutex hand-off and condvar wakes;
/// phases below the threshold lose more to the hand-off than they gain.
/// The guard depends only on the input, never on timing or width, so
/// outputs stay bit-identical either way.
pub fn parallel_map_min_work<T, R, F>(items: &[T], est_work: usize, min_work: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let width = if est_work < min_work { 1 } else { threads() };
    run_tasks(items.len(), width, |i| f(i, &items[i]))
}

/// Like [`parallel_map`] but consuming the items, for tasks that fold or
/// absorb their input (e.g. table-merge pairs). `f` receives
/// `(index, item)`; results in input order.
pub fn parallel_map_owned<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    parallel_map_owned_min_work(items, usize::MAX, 0, f)
}

/// [`parallel_map_owned`] with the same small-work guard as
/// [`parallel_map_min_work`].
pub fn parallel_map_owned_min_work<T, R, F>(
    items: Vec<T>,
    est_work: usize,
    min_work: usize,
    f: F,
) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let width = if est_work < min_work { 1 } else { threads() };
    // Hand each owned item to exactly one worker through a per-slot cell;
    // the width-1 path takes them in order with zero contention.
    let cells: Vec<Mutex<Option<T>>> =
        items.into_iter().map(|x| Mutex::new(Some(x))).collect();
    run_tasks(cells.len(), width, |i| {
        let item = cells[i].lock().unwrap().take().expect("item taken once");
        f(i, item)
    })
}

/// Run `body` with the global width temporarily forced to `n`, restoring
/// the previous setting afterwards (even on panic). Benches and the
/// differential harness use this to sweep thread counts.
pub fn with_threads<R>(n: usize, body: impl FnOnce() -> R) -> R {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            THREADS.store(self.0, Ordering::Relaxed);
        }
    }
    let _restore = Restore(THREADS.swap(n, Ordering::Relaxed));
    body()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn results_are_index_ordered_at_any_width() {
        let items: Vec<u64> = (0..137).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * x).collect();
        for w in [1, 2, 3, 8, 64, 200] {
            let got = run_tasks(items.len(), w, |i| items[i] * items[i]);
            assert_eq!(got, expect, "width {w}");
        }
    }

    #[test]
    fn empty_and_single_inputs() {
        let none: Vec<u32> = vec![];
        assert!(parallel_map(&none, |_, x: &u32| *x).is_empty());
        assert_eq!(run_tasks(1, 8, |i| i + 10), vec![10]);
    }

    #[test]
    fn every_task_runs_exactly_once() {
        let count = AtomicU64::new(0);
        let n = 1000;
        let out = run_tasks(n, 7, |i| {
            count.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(count.load(Ordering::Relaxed), n as u64);
        assert_eq!(out, (0..n).collect::<Vec<_>>());
    }

    /// Serializes the tests that touch the process-global width.
    static GLOBAL_WIDTH: Mutex<()> = Mutex::new(());

    #[test]
    fn owned_map_consumes_in_order() {
        let _g = GLOBAL_WIDTH.lock().unwrap();
        let items: Vec<String> = (0..50).map(|i| format!("s{i}")).collect();
        let got = with_threads(4, || {
            parallel_map_owned(items.clone(), |i, s| format!("{i}:{s}"))
        });
        let expect: Vec<String> = (0..50).map(|i| format!("{i}:s{i}")).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn with_threads_restores_setting() {
        let _g = GLOBAL_WIDTH.lock().unwrap();
        set_threads(0);
        let inner = with_threads(3, threads);
        assert_eq!(inner, 3);
        assert_eq!(THREADS.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn width_one_runs_on_caller_thread() {
        let caller = std::thread::current().id();
        let ids = run_tasks(4, 1, |_| std::thread::current().id());
        assert!(ids.iter().all(|id| *id == caller));
    }

    #[test]
    fn worker_panic_propagates() {
        let r = std::panic::catch_unwind(|| {
            run_tasks(8, 4, |i| {
                if i == 5 {
                    panic!("boom");
                }
                i
            })
        });
        assert!(r.is_err());
    }

    #[test]
    fn pool_survives_many_generations() {
        // Back-to-back regions at shifting widths: exercises the
        // generation hand-off, worker parking/waking, and reuse of a
        // recycled job control block (successive regions share the same
        // stack frame address).
        for round in 0..200usize {
            let w = 2 + round % 7;
            let n = 1 + round % 23;
            let got = run_tasks(n, w, |i| i * round);
            let expect: Vec<usize> = (0..n).map(|i| i * round).collect();
            assert_eq!(got, expect, "round {round}, width {w}");
        }
    }

    #[test]
    fn pool_handles_tasks_slower_than_submitter() {
        // Tasks long enough that parked workers actually wake and help:
        // drains the worker-entry and retirement paths, not just the
        // submitter-does-everything fast path.
        let got = run_tasks(16, 8, |i| {
            std::thread::sleep(std::time::Duration::from_millis(2));
            i * i
        });
        assert_eq!(got, (0..16).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn nested_region_from_a_pool_task_runs_inline() {
        // A task that itself calls run_tasks must not deadlock on the
        // pool it occupies; the nested region runs inline on whichever
        // thread executes the outer task.
        let got = run_tasks(6, 3, |i| run_tasks(4, 8, move |j| i * 10 + j));
        for (i, inner) in got.iter().enumerate() {
            assert_eq!(inner, &(0..4).map(|j| i * 10 + j).collect::<Vec<_>>());
        }
    }

    #[test]
    fn panic_after_partial_progress_propagates() {
        // Panic mid-region with other tasks already complete: the payload
        // must surface and the pool must stay usable afterwards.
        let r = std::panic::catch_unwind(|| {
            run_tasks(64, 4, |i| {
                if i == 40 {
                    panic!("mid-region failure");
                }
                i
            })
        });
        assert!(r.is_err());
        // The pool is not poisoned: the next region works.
        assert_eq!(run_tasks(8, 4, |i| i + 1), (1..9).collect::<Vec<_>>());
    }
}
