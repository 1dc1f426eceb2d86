//! The quorum board: a per-world rendezvous for operations that no member
//! can leave before every member has arrived.
//!
//! Each member deposits one entry under a key (communicator id, sequence
//! number) at its first poll and waits. The last member to arrive runs an
//! evaluation over every member's entry in one pass, stores the results,
//! and wakes the others, who read theirs back. The slot disappears once
//! every member has read it. The board is polled, not awaited: each
//! member's own small future builds its deposit at its first poll and
//! polls [`QuorumBoard::poll_arrive`].
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

    /// One poll of member `member`'s part in a `size`-member quorum under
    /// `key`. The first poll passes `deposit`: the member's entry, and the
    /// evaluation to run if it arrives last. That evaluation runs over all
    /// entries outside the board's lock. Later polls pass `None`. Once the
    /// evaluation has run, every member gets `read(results, member)`.
    pub fn poll_arrive<E, R, O>(
        &self,
        cx: &mut Context<'_>,
        key: (u64, u32),
        member: usize,
        size: usize,
        deposit: Option<(T, E)>,
        read: R,
    ) -> Poll<O>
    where
        E: FnOnce(&mut [T]),
        R: Fn(&[T], usize) -> O,
    {
        let mut slots = self.slots.lock().expect("quorum board poisoned");
        let depositing = deposit.is_some();
        if let Some((entry, evaluate)) = deposit {
            let slot = slots.entry(key).or_insert_with(|| Slot {
                entries: vec![T::default(); size],
                arrived: 0,
                ready: false,
                readers: 0,
                wakers: Vec::new(),
            });
            slot.entries[member] = entry;
            slot.arrived += 1;
            if slot.arrived == size {
                // Last arrival: evaluate without holding the board, so an
                // O(p²) schedule never stalls arrivals on other slots.
                let mut entries = std::mem::take(&mut slot.entries);
                drop(slots);
                evaluate(&mut entries);
                let out = read(&entries, member);
                let mut slots = self.slots.lock().expect("quorum board poisoned");
                let slot = slots.get_mut(&key).expect("slot outlives its readers");
                slot.entries = entries;
                slot.ready = true;
                let wakers = std::mem::take(&mut slot.wakers);
                note_read(&mut slots, key, size);
                drop(slots);
                for (_, w) in wakers {
                    w.wake();
                }
                return Poll::Ready(out);
            }
        }
        let slot = slots.get_mut(&key).expect("slot outlives its readers");
        if slot.ready {
            let out = read(&slot.entries, member);
            note_read(&mut slots, key, size);
            return Poll::Ready(out);
        }
        // A member registers at its deposit, so only a repeated poll can
        // find itself listed; skipping the scan keeps arrivals O(1).
        let listed =
            if depositing { None } else { slot.wakers.iter_mut().find(|(m, _)| *m == member) };
        match listed {
            Some(entry) => entry.1 = cx.waker().clone(),
            None => slot.wakers.push((member, cx.waker().clone())),
        }
        Poll::Pending
    }
}

/// Count one member's read; the last reader frees the slot.
fn note_read<T>(slots: &mut FxHashMap<(u64, u32), Slot<T>>, key: (u64, u32), size: usize) {
    let slot = slots.get_mut(&key).expect("slot outlives its readers");
    slot.readers += 1;
    if slot.readers == size {
        slots.remove(&key);
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

    /// One poll of `member`'s part in a quorum of `size` under `key`,
    /// woken through `flag`; `deposit` is `Some` at its first poll only.
    fn poll(
        board: &QuorumBoard<u64>,
        flag: &Arc<FlagWaker>,
        (key, member, size): ((u64, u32), usize, usize),
        deposit: Option<(u64, impl FnOnce(&mut [u64]))>,
        read: impl Fn(&[u64], usize) -> u64,
    ) -> Poll<u64> {
        let waker = Waker::from(flag.clone());
        board.poll_arrive(&mut Context::from_waker(&waker), key, member, size, deposit, read)
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
        let (first, second, last) = (((7, 0), 2, 3), ((7, 0), 0, 3), ((7, 0), 1, 3));
        assert!(poll(&board, &flags[2], first, Some((30, double)), own).is_pending());
        assert!(poll(&board, &flags[0], second, Some((10, double)), own).is_pending());
        assert_eq!(poll(&board, &flags[1], last, Some((20, double)), own), Poll::Ready(40));
        assert_eq!(evaluations.get(), 1);
        assert!(flags[0].0.load(Ordering::SeqCst) && flags[2].0.load(Ordering::SeqCst));
        // Later polls deposit nothing.
        let nothing = None::<(u64, fn(&mut [u64]))>;
        assert_eq!(poll(&board, &flags[2], first, nothing, own), Poll::Ready(60));
        assert_eq!(poll(&board, &flags[0], second, nothing, own), Poll::Ready(20));
        assert!(board.slots.lock().unwrap().is_empty(), "the last reader frees the slot");
    }

    #[test]
    fn keys_do_not_share_slots() {
        let board: QuorumBoard<u64> = QuorumBoard::new();
        let flag = Arc::new(FlagWaker(AtomicBool::new(false)));
        let sum = |entries: &mut [u64]| entries[0] = entries.iter().sum();
        let first = |entries: &[u64], _: usize| entries[0];
        assert!(poll(&board, &flag, ((1, 0), 0, 2), Some((5, sum)), first).is_pending());
        assert!(poll(&board, &flag, ((1, 1), 1, 2), Some((6, sum)), first).is_pending());
        assert!(!flag.0.load(Ordering::SeqCst));
    }
}
