//! Executors that drive rank futures.
//!
//! The default executor is a discrete-event scheduler: every rank is a
//! resumable state machine (a boxed future), and the scheduler polls
//! runnable ranks in deterministic batches on the `siesta-par` pool. A
//! rank that blocks (unmatched recv, rendezvous ack, collective quorum,
//! split rendezvous) registers a [`std::task::Waker`] with the engine and
//! returns `Pending`; the peer that completes the condition wakes it.
//! This decouples rank count from thread count: a million virtual ranks
//! need a million small heap objects, not a million OS threads.
//!
//! Determinism: each scheduling round drains the wake queue, sorts it by
//! rank index, and polls the batch via [`siesta_par::run_tasks`] (which
//! assigns tasks to workers by index, never by arrival). Simulated time
//! is virtual — per-rank clocks advanced by the performance model — so
//! the set of wakes produced by a batch does not depend on host thread
//! interleaving, and the composition of rounds is a pure function of the
//! program. Output artifacts are byte-identical at any `--threads`.

use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};
use std::task::{Context, Poll, Wake, Waker};

use siesta_obs::metrics::{counter, gauge, histogram, Counter, Gauge, Histogram};

/// Scheduler introspection metrics, resolved once per run. All names
/// carry the `obs.` prefix: wake and round tallies depend on host thread
/// interleaving (a wake landing while its target is RUNNING versus
/// already-polled changes who enqueues), so they are real observability
/// data but must stay out of the canonical (width-invariant) report.
struct SchedMetrics {
    rounds: &'static Counter,
    wakes: &'static Counter,
    quiescence_checks: &'static Counter,
    batch_size: &'static Histogram,
    wakes_per_rank: &'static Histogram,
    queue_depth: &'static Gauge,
}

impl SchedMetrics {
    fn resolve() -> SchedMetrics {
        SchedMetrics {
            rounds: counter("obs.sim.sched.rounds"),
            wakes: counter("obs.sim.sched.wakes"),
            quiescence_checks: counter("obs.sim.sched.quiescence_checks"),
            batch_size: histogram("obs.sim.sched.batch_size"),
            wakes_per_rank: histogram("obs.sim.sched.wakes_per_rank"),
            queue_depth: gauge("obs.sim.sched.queue_depth"),
        }
    }
}

/// The boxed resumable state machine of one rank. Rank bodies receive a
/// [`crate::Rank`] by value and return it when done (so the world can
/// collect per-rank statistics); `'env` lets the body borrow data owned
/// by the caller of [`crate::World::run`].
pub type RankFut<'env, T> = Pin<Box<dyn Future<Output = T> + Send + 'env>>;

// Rank scheduling states. IDLE: blocked, waiting for a wake. QUEUED: in
// the wake queue for the next batch. RUNNING: being polled right now.
// DONE: future completed.
const IDLE: u8 = 0;
const QUEUED: u8 = 1;
const RUNNING: u8 = 2;
const DONE: u8 = 3;

/// Shared scheduler state the wakers point at.
///
/// A wake that lands while its rank is mid-poll is a store-buffer (Dekker)
/// handshake between two threads. The waker stores `pending` and then
/// loads `status`; the poller stores `IDLE` and then swaps `pending`. At
/// least one side must see the other's store, or the wake is lost and the
/// run ends in a false deadlock. Acquire/release ordering does not
/// guarantee that (x86 may let each load pass its own thread's earlier
/// store), so these four operations are `SeqCst`: they share one total
/// order, and whichever store comes second in it is seen by the other
/// side's load.
struct ExecShared {
    status: Vec<AtomicU8>,
    /// Set when a wake arrives while the rank is mid-poll; the poller
    /// re-queues the rank after storing `IDLE` so the wake is not lost.
    pending: Vec<AtomicBool>,
    /// Ranks runnable in the next batch. Drained, sorted, and polled as
    /// one `run_tasks` region per scheduling round.
    queue: Mutex<Vec<usize>>,
    /// Per-rank wake tallies, allocated only when introspection is on
    /// (the hot path must stay one branch when profiling is off).
    wake_counts: Option<Vec<AtomicU64>>,
}

impl ExecShared {
    fn new(n: usize, instrument: bool) -> ExecShared {
        ExecShared {
            status: (0..n).map(|_| AtomicU8::new(QUEUED)).collect(),
            pending: (0..n).map(|_| AtomicBool::new(false)).collect(),
            queue: Mutex::new((0..n).collect()),
            wake_counts: instrument.then(|| (0..n).map(|_| AtomicU64::new(0)).collect()),
        }
    }

    /// Tally one wake enqueue for `rank` (introspection only).
    fn note_wake(&self, rank: usize) {
        if let Some(counts) = &self.wake_counts {
            counts[rank].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Make `rank` runnable. Safe to call from any thread, including the
    /// thread currently polling `rank`.
    fn wake_rank(&self, rank: usize) {
        loop {
            match self.status[rank].load(Ordering::Acquire) {
                IDLE => {
                    if self.status[rank]
                        .compare_exchange(IDLE, QUEUED, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok()
                    {
                        self.queue.lock().unwrap().push(rank);
                        self.note_wake(rank);
                        return;
                    }
                    // Lost the race with another waker or the poller; retry.
                }
                RUNNING => {
                    // SeqCst store, then SeqCst load: pairs with the
                    // poller's `IDLE` store and `pending` swap.
                    self.pending[rank].store(true, Ordering::SeqCst);
                    // The poller may have stored IDLE just before our flag
                    // landed; re-check, and if it already consumed the flag
                    // someone queued the rank for us.
                    if self.status[rank].load(Ordering::SeqCst) == RUNNING {
                        return;
                    }
                    if !self.pending[rank].swap(false, Ordering::AcqRel) {
                        return;
                    }
                    // We took the flag back; loop and enqueue ourselves.
                }
                // QUEUED or DONE: nothing to do.
                _ => return,
            }
        }
    }
}

struct RankWaker {
    exec: Arc<ExecShared>,
    rank: usize,
}

impl Wake for RankWaker {
    fn wake(self: Arc<Self>) {
        self.exec.wake_rank(self.rank);
    }
    fn wake_by_ref(self: &Arc<Self>) {
        self.exec.wake_rank(self.rank);
    }
}

/// One rank's future while it runs, then what `finish` made of its
/// output. A running rank reserves no room for an output it has not made.
enum Slot<'env, T, U> {
    Running(RankFut<'env, T>),
    Done(U),
}

/// Drive all rank futures to completion on the event scheduler, applying
/// `finish` to each output as its rank completes (on the thread that
/// polled it), so the output is dropped there and then.
///
/// Returns `Err(blocked_ranks)` if the simulation deadlocks: no rank is
/// runnable but some have not finished. Between batches no rank is
/// executing, so an empty wake queue with unfinished ranks is a true
/// quiescent deadlock, never a race. An `observed` run (see
/// `World::try_run`) also records the scheduler introspection metrics.
pub(crate) fn run_event<'env, T: Send, U: Send>(
    futs: Vec<RankFut<'env, T>>,
    observed: bool,
    finish: impl Fn(T) -> U + Sync,
) -> Result<Vec<U>, Vec<usize>> {
    let n = futs.len();
    let metrics = observed.then(SchedMetrics::resolve);
    let exec = Arc::new(ExecShared::new(n, metrics.is_some()));
    let wakers: Vec<Waker> = (0..n)
        .map(|rank| Waker::from(Arc::new(RankWaker { exec: exec.clone(), rank })))
        .collect();
    let slots: Vec<Mutex<Slot<'env, T, U>>> =
        futs.into_iter().map(|f| Mutex::new(Slot::Running(f))).collect();

    let mut unfinished = n;
    while unfinished > 0 {
        let mut batch = std::mem::take(&mut *exec.queue.lock().unwrap());
        if let Some(m) = &metrics {
            m.queue_depth.set(batch.len() as i64);
        }
        if batch.is_empty() {
            // Quiescent with work left: deadlock. Report who is stuck.
            if let Some(m) = &metrics {
                m.quiescence_checks.inc();
            }
            let blocked: Vec<usize> = slots
                .iter()
                .enumerate()
                .filter(|(_, s)| matches!(*s.lock().expect("slot poisoned"), Slot::Running(_)))
                .map(|(r, _)| r)
                .collect();
            return Err(blocked);
        }
        // Deterministic batch order: rank index, not wake arrival.
        batch.sort_unstable();
        if let Some(m) = &metrics {
            m.rounds.inc();
            m.batch_size.record(batch.len() as u64);
        }
        let width = siesta_par::threads().min(batch.len());
        let finished = siesta_par::run_tasks(batch.len(), width, |i| {
            let rank = batch[i];
            let mut slot = slots[rank].lock().unwrap();
            exec.status[rank].store(RUNNING, Ordering::Release);
            let Slot::Running(fut) = &mut *slot else {
                panic!("queued rank {rank} has already finished")
            };
            let mut cx = Context::from_waker(&wakers[rank]);
            match fut.as_mut().poll(&mut cx) {
                Poll::Ready(out) => {
                    *slot = Slot::Done(finish(out));
                    exec.status[rank].store(DONE, Ordering::Release);
                    true
                }
                Poll::Pending => {
                    // SeqCst store, then SeqCst swap: pairs with the
                    // waker's `pending` store and `status` load.
                    exec.status[rank].store(IDLE, Ordering::SeqCst);
                    // A wake that landed mid-poll parked itself in
                    // `pending`; convert it into a queue entry now.
                    if exec.pending[rank].swap(false, Ordering::SeqCst)
                        && exec.status[rank]
                            .compare_exchange(IDLE, QUEUED, Ordering::AcqRel, Ordering::Acquire)
                            .is_ok()
                    {
                        exec.queue.lock().unwrap().push(rank);
                        exec.note_wake(rank);
                    }
                    false
                }
            }
        });
        unfinished -= finished.iter().filter(|&&done| done).count();
    }

    if let (Some(m), Some(counts)) = (&metrics, &exec.wake_counts) {
        let mut total = 0u64;
        for c in counts {
            let v = c.load(Ordering::Relaxed);
            total += v;
            m.wakes_per_rank.record(v);
        }
        m.wakes.add(total);
        m.queue_depth.set(0);
    }

    Ok(slots
        .into_iter()
        .map(|s| match s.into_inner().expect("slot poisoned") {
            Slot::Done(out) => out,
            Slot::Running(_) => unreachable!("every rank finished"),
        })
        .collect())
}

/// Cooperatively yield once: wake self, return `Pending` a single time.
/// Used by [`crate::Rank::test`] so a test-poll loop cannot livelock the
/// cooperative scheduler.
pub(crate) struct YieldNow {
    yielded: bool,
}

impl YieldNow {
    pub(crate) fn new() -> YieldNow {
        YieldNow { yielded: false }
    }
}

impl Future for YieldNow {
    type Output = ();
    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.yielded {
            Poll::Ready(())
        } else {
            self.yielded = true;
            cx.waker().wake_by_ref();
            Poll::Pending
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_executor_runs_independent_futures() {
        let futs: Vec<RankFut<'_, usize>> =
            (0..64usize).map(|i| Box::pin(async move { i * 2 }) as RankFut<'_, usize>).collect();
        let out = run_event(futs, false, |x| x).expect("no deadlock");
        assert_eq!(out, (0..64).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn yield_now_resumes_in_a_later_batch() {
        let futs: Vec<RankFut<'_, u32>> = (0..4u32)
            .map(|i| {
                Box::pin(async move {
                    YieldNow::new().await;
                    YieldNow::new().await;
                    i
                }) as RankFut<'_, u32>
            })
            .collect();
        assert_eq!(run_event(futs, false, |x| x).unwrap(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn never_woken_future_reports_deadlock() {
        struct Never;
        impl Future for Never {
            type Output = ();
            fn poll(self: Pin<&mut Self>, _: &mut Context<'_>) -> Poll<()> {
                Poll::Pending
            }
        }
        let futs: Vec<RankFut<'_, ()>> = vec![
            Box::pin(async {}),
            Box::pin(async {
                Never.await;
            }),
        ];
        assert_eq!(run_event(futs, false, |x| x).unwrap_err(), vec![1]);
    }

    #[test]
    fn cross_rank_wakes_are_not_lost() {
        // Rank 1 blocks on a one-shot cell; rank 0 fills it. Exercises the
        // waker CAS protocol (wake may land while the target is RUNNING).
        use crate::message::AckCell;
        let cell = Arc::new(AckCell::default());
        let c0 = cell.clone();
        let c1 = cell.clone();
        let futs: Vec<RankFut<'_, f64>> = vec![
            Box::pin(async move {
                YieldNow::new().await;
                c0.set(7.5);
                0.0
            }),
            Box::pin(async move {
                let cell = c1;
                crate::message::AckWait(&cell).await
            }),
        ];
        assert_eq!(run_event(futs, false, |x| x).unwrap(), vec![0.0, 7.5]);
    }
}
