//! The quorum board: a per-world rendezvous for operations that no member
//! can leave before every member has arrived.
//!
//! Each member deposits one entry under a key (communicator id, sequence
//! number) and awaits. The last member to arrive runs an evaluation over
//! every member's entry in one pass, stores the results, and wakes the
//! others, who read theirs back. The slot disappears once every member has
//! read it.
//!
//! Two boards use this primitive. The all-member collectives (`barrier`,
//! `allreduce`, `allgather`, `alltoall`, `reduce_scatter_block` and the
//! barrier of `comm_dup`) deposit their virtual clocks and call plans, and
//! the last arrival runs the algorithm's whole round schedule (see
//! `collectives.rs`). `comm_split` deposits `(color, key, clock)` under its
//! communicator-derivation sequence in a board of its own, so the two key
//! spaces never meet.
//!
//! Determinism: entries are indexed by communicator rank and an evaluation
//! is a pure function of them, so which member arrives last, and on which
//! worker thread, never changes a result.

use std::future::Future;
use std::pin::Pin;
use std::sync::Mutex;
use std::task::{Context, Poll, Waker};

use siesta_hash::FxHashMap;

/// Slots of in-flight quorums, keyed by (communicator id, sequence number).
pub(crate) struct QuorumBoard<T> {
    slots: Mutex<FxHashMap<(u64, u32), Slot<T>>>,
}

struct Slot<T> {
    /// One entry per member: deposits until the evaluation, results after.
    entries: Vec<T>,
    arrived: usize,
    /// The evaluation has run and `entries` hold its results.
    ready: bool,
    readers: usize,
    /// Wakers of members waiting for the evaluation, keyed by member
    /// (re-registered if a member is polled again before it is ready).
    wakers: Vec<(usize, Waker)>,
}

impl<T: Clone + Default> QuorumBoard<T> {
    pub fn new() -> QuorumBoard<T> {
        QuorumBoard { slots: Mutex::new(FxHashMap::default()) }
    }

    /// Deposit `entry` as member `member` of a `size`-member quorum and
    /// await the evaluation. The last member to arrive runs `evaluate` over
    /// all entries, outside the board's lock; every member then gets
    /// `read(results, member)`.
    pub fn arrive<'a, E, R, O>(
        &'a self,
        key: (u64, u32),
        member: usize,
        size: usize,
        entry: T,
        evaluate: E,
        read: R,
    ) -> Arrive<'a, T, E, R>
    where
        E: FnOnce(&mut [T]),
        R: Fn(&[T], usize) -> O,
    {
        Arrive { board: self, key, member, size, entry: Some(entry), evaluate: Some(evaluate), read }
    }
}

/// Future of one member's participation in a quorum (see
/// [`QuorumBoard::arrive`]).
pub(crate) struct Arrive<'a, T, E, R> {
    board: &'a QuorumBoard<T>,
    key: (u64, u32),
    member: usize,
    size: usize,
    /// Taken by the first poll, which deposits it.
    entry: Option<T>,
    evaluate: Option<E>,
    read: R,
}

impl<T, E, R, O> Future for Arrive<'_, T, E, R>
where
    T: Clone + Default + Unpin,
    E: FnOnce(&mut [T]) + Unpin,
    R: Fn(&[T], usize) -> O + Unpin,
{
    type Output = O;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<O> {
        let this = self.get_mut();
        let mut slots = this.board.slots.lock().unwrap();
        let depositing = this.entry.is_some();
        if let Some(entry) = this.entry.take() {
            let size = this.size;
            let slot = slots.entry(this.key).or_insert_with(|| Slot {
                entries: vec![T::default(); size],
                arrived: 0,
                ready: false,
                readers: 0,
                wakers: Vec::new(),
            });
            slot.entries[this.member] = entry;
            slot.arrived += 1;
            if slot.arrived == size {
                // Last arrival: evaluate without holding the board, so an
                // O(p²) schedule never stalls arrivals on other slots.
                let mut entries = std::mem::take(&mut slot.entries);
                drop(slots);
                (this.evaluate.take().expect("evaluated once"))(&mut entries);
                let out = (this.read)(&entries, this.member);
                let mut slots = this.board.slots.lock().unwrap();
                let slot = slots.get_mut(&this.key).expect("slot outlives its readers");
                slot.entries = entries;
                slot.ready = true;
                let wakers = std::mem::take(&mut slot.wakers);
                Self::note_read(&mut slots, this.key, size);
                drop(slots);
                for (_, w) in wakers {
                    w.wake();
                }
                return Poll::Ready(out);
            }
        }
        let slot = slots.get_mut(&this.key).expect("slot outlives its readers");
        if slot.ready {
            let out = (this.read)(&slot.entries, this.member);
            Self::note_read(&mut slots, this.key, this.size);
            return Poll::Ready(out);
        }
        // A member registers at its deposit, so only a repeated poll can
        // find itself listed; skipping the scan keeps arrivals O(1).
        let listed = if depositing {
            None
        } else {
            slot.wakers.iter_mut().find(|(m, _)| *m == this.member)
        };
        match listed {
            Some(entry) => entry.1 = cx.waker().clone(),
            None => slot.wakers.push((this.member, cx.waker().clone())),
        }
        Poll::Pending
    }
}

impl<T, E, R> Arrive<'_, T, E, R> {
    /// Count one member's read; the last reader frees the slot.
    fn note_read(slots: &mut FxHashMap<(u64, u32), Slot<T>>, key: (u64, u32), size: usize) {
        let slot = slots.get_mut(&key).expect("slot outlives its readers");
        slot.readers += 1;
        if slot.readers == size {
            slots.remove(&key);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::task::Wake;

    struct FlagWaker(AtomicBool);
    impl Wake for FlagWaker {
        fn wake(self: Arc<Self>) {
            self.0.store(true, Ordering::SeqCst);
        }
    }

    fn poll<F: Future + Unpin>(fut: &mut F, flag: &Arc<FlagWaker>) -> Poll<F::Output> {
        let waker = Waker::from(flag.clone());
        Pin::new(fut).poll(&mut Context::from_waker(&waker))
    }

    #[test]
    fn last_arrival_evaluates_once_and_wakes_the_others() {
        let board: QuorumBoard<u64> = QuorumBoard::new();
        let evaluations = std::cell::Cell::new(0);
        let double = |entries: &mut [u64]| {
            evaluations.set(evaluations.get() + 1);
            entries.iter_mut().for_each(|e| *e *= 2);
        };
        let own = |entries: &[u64], m: usize| entries[m];
        let flags: Vec<Arc<FlagWaker>> =
            (0..3).map(|_| Arc::new(FlagWaker(AtomicBool::new(false)))).collect();
        let mut first = board.arrive((7, 0), 2, 3, 30, double, own);
        let mut second = board.arrive((7, 0), 0, 3, 10, double, own);
        let mut last = board.arrive((7, 0), 1, 3, 20, double, own);
        assert!(poll(&mut first, &flags[2]).is_pending());
        assert!(poll(&mut second, &flags[0]).is_pending());
        assert_eq!(poll(&mut last, &flags[1]), Poll::Ready(40));
        assert_eq!(evaluations.get(), 1);
        assert!(flags[0].0.load(Ordering::SeqCst) && flags[2].0.load(Ordering::SeqCst));
        assert_eq!(poll(&mut first, &flags[2]), Poll::Ready(60));
        assert_eq!(poll(&mut second, &flags[0]), Poll::Ready(20));
        assert!(board.slots.lock().unwrap().is_empty(), "the last reader frees the slot");
    }

    #[test]
    fn keys_do_not_share_slots() {
        let board: QuorumBoard<u64> = QuorumBoard::new();
        let flag = Arc::new(FlagWaker(AtomicBool::new(false)));
        let sum = |entries: &mut [u64]| entries[0] = entries.iter().sum();
        let first = |entries: &[u64], _: usize| entries[0];
        let mut a = board.arrive((1, 0), 0, 2, 5, sum, first);
        let mut b = board.arrive((1, 1), 1, 2, 6, sum, first);
        assert!(poll(&mut a, &flag).is_pending());
        assert!(poll(&mut b, &flag).is_pending());
        assert!(!flag.0.load(Ordering::SeqCst));
    }
}
