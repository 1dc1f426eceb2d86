//! The message-matching engine: per-rank mailboxes with MPI matching
//! semantics and virtual-time completion computation.
//!
//! One mailbox per rank holds an *unexpected-message* queue and a
//! *posted-receive* list, exactly like a real MPI progress engine. Matching
//! happens at whichever side arrives second:
//!
//! * a receive that finds a matching unexpected message completes at post:
//!   [`Engine::post_recv`] returns the completion itself
//!   ([`RecvHandle::Ready`]), and the receiver never waits;
//! * otherwise the receive parks in a slot of its mailbox's slab
//!   ([`RecvHandle::Pending`]). The send that matches it writes the
//!   completion into that slot, and [`Engine::wait`] or [`Engine::test`]
//!   takes it and puts the slot on the mailbox's free list.
//!
//! Either way, a message larger than the receive's capacity panics where
//! the two meet, as MPI reports `MPI_ERR_TRUNCATE`; a parked receive keeps
//! its capacity in its slab slot until then.
//!
//! A receive whose message is already queued therefore takes the mailbox
//! lock once, and no receive hashes anything. A mailbox never holds more
//! slots than its rank's peak number of parked receives.
//!
//! All completion *times* are pure functions of the virtual timestamps
//! carried in the envelope and the posted receive, so results do not depend
//! on real thread scheduling. Non-overtaking order is preserved because each
//! sender state machine enqueues its messages in program order and matching
//! always scans queues front to back filtered by exact source.
//!
//! Waiting is event-driven: a rank blocked in [`Engine::wait`] registers
//! its slot and a [`Waker`] with its own mailbox and is woken by the send
//! that fills that slot — no condvars, no parked OS threads.

use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::sync::{Mutex, MutexGuard};
use std::task::{Context, Poll, Waker};

use siesta_perfmodel::Machine;

use crate::link::Link;
use crate::message::{Channel, Envelope, MatchKey, Tag, WireProtocol};

/// Outcome of a matched receive, before receiver-side overhead is applied.
/// 24 bytes: receives that complete at post carry it in their handle.
#[derive(Debug, Clone, Copy)]
pub struct Completion {
    /// Virtual time the payload is fully available at the receiver.
    pub data_avail: f64,
    pub bytes: usize,
    /// Sender's rank within the message's communicator.
    pub src_comm_rank: u32,
    /// Tag the receive status reports: the message's tag, or -2 for
    /// collective plumbing.
    pub tag: Tag,
}

/// A posted receive, as [`Engine::post_recv`] returns it.
#[derive(Debug, Clone, Copy)]
pub enum RecvHandle {
    /// A queued message matched at post: the receive is complete.
    Ready(Completion),
    /// Parked in this slot of the receiver's mailbox until a send fills
    /// it: pass it to [`Engine::wait`] or [`Engine::test`].
    Pending(usize),
}

#[derive(Debug)]
struct Posted {
    /// Slab slot the matching send fills.
    slot: usize,
    key: MatchKey,
    post_time: f64,
}

/// One slot of a mailbox's slab of parked receives: 32 bytes, as an
/// `Option<Completion>` would be.
#[derive(Debug, Clone, Copy)]
enum Parked {
    /// On the mailbox's free list.
    Free,
    /// Waiting for its send. A larger message than `capacity` bytes is an
    /// error (see [`truncated`]).
    Waiting { capacity: usize },
    /// Filled by the matching send, until [`Engine::wait`] or
    /// [`Engine::test`] takes it.
    Done(Completion),
}

#[derive(Default)]
struct Mailbox {
    unexpected: VecDeque<Envelope>,
    posted: Vec<Posted>,
    /// Slab of parked receives: a slot waits from park until the matching
    /// send fills it, and returns to `free` once taken.
    done: Vec<Parked>,
    free: Vec<usize>,
    /// The mailbox owner, if currently blocked in [`Engine::wait`]: the
    /// slot it needs and how to resume it. Only the owning rank ever waits
    /// on its own mailbox, and on one receive at a time.
    waiter: Option<(usize, Waker)>,
    /// Receives that completed at post, and receives that parked.
    at_post: u64,
    parked: u64,
}

impl Mailbox {
    /// Take the completion of parked receive `slot` if a send filled it,
    /// recycling the slot.
    fn take(&mut self, slot: usize) -> Option<Completion> {
        let Parked::Done(c) = self.done[slot] else { return None };
        self.done[slot] = Parked::Free;
        self.free.push(slot);
        Some(c)
    }
}

/// Shared matching state for a whole world.
pub struct Engine {
    mailboxes: Vec<Mutex<Mailbox>>,
    machine: Machine,
}

impl Engine {
    pub fn new(machine: Machine, nranks: usize) -> Engine {
        Engine {
            mailboxes: (0..nranks).map(|_| Mutex::default()).collect(),
            machine,
        }
    }

    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Lock rank `me`'s mailbox.
    fn mailbox(&self, me: usize) -> MutexGuard<'_, Mailbox> {
        self.mailboxes[me].lock().expect("a rank panicked while holding its mailbox")
    }

    /// Deliver `env` to `dst_global`'s mailbox, completing a posted receive
    /// if one matches — and waking the owner if it was blocked on it.
    pub fn send(&self, dst_global: usize, env: Envelope) {
        let wake = {
            let mut inner = self.mailbox(dst_global);
            // First posted receive that matches, in post order.
            if let Some(pos) = inner.posted.iter().position(|p| p.key.matches(&env)) {
                let posted = inner.posted.remove(pos);
                if let Parked::Waiting { capacity } = inner.done[posted.slot] {
                    if env.bytes > capacity {
                        // Unlock first, so the panic does not poison the mailbox.
                        drop(inner);
                        truncated(&env, capacity, dst_global);
                    }
                }
                let c = self.complete(&env, posted.post_time, dst_global);
                inner.done[posted.slot] = Parked::Done(c);
                if inner.waiter.as_ref().is_some_and(|(slot, _)| *slot == posted.slot) {
                    inner.waiter.take().map(|(_, w)| w)
                } else {
                    None
                }
            } else {
                inner.unexpected.push_back(env);
                None
            }
        };
        if let Some(w) = wake {
            w.wake();
        }
    }

    /// Post a receive of at most `capacity` bytes for rank `me`. If an
    /// unexpected message already matches, the receive completes here and
    /// the handle carries its completion; otherwise it parks in a slot of
    /// `me`'s mailbox. Collective plumbing passes `usize::MAX`: it sizes
    /// its own messages.
    pub fn post_recv(
        &self,
        me: usize,
        key: MatchKey,
        capacity: usize,
        post_time: f64,
    ) -> RecvHandle {
        let mut inner = self.mailbox(me);
        if let Some(pos) = inner.unexpected.iter().position(|e| key.matches(e)) {
            let env = inner.unexpected.remove(pos).expect("position exists");
            inner.at_post += 1;
            drop(inner);
            if env.bytes > capacity {
                truncated(&env, capacity, me);
            }
            return RecvHandle::Ready(self.complete(&env, post_time, me));
        }
        let slot = match inner.free.pop() {
            Some(slot) => slot,
            None => {
                inner.done.push(Parked::Free);
                inner.done.len() - 1
            }
        };
        inner.done[slot] = Parked::Waiting { capacity };
        inner.posted.push(Posted { slot, key, post_time });
        inner.parked += 1;
        RecvHandle::Pending(slot)
    }

    /// Resolve when the receive parked in `slot` of `me`'s mailbox
    /// completes. The returned future registers `me` as the mailbox's
    /// waiter and is woken by the matching [`Engine::send`].
    pub fn wait(&self, me: usize, slot: usize) -> WaitRecv<'_> {
        WaitRecv { engine: self, me, slot }
    }

    /// Non-blocking completion check of the receive parked in `slot`.
    pub fn test(&self, me: usize, slot: usize) -> Option<Completion> {
        self.mailbox(me).take(slot)
    }

    /// Count of messages sitting in `me`'s unexpected queue (diagnostics).
    pub fn unexpected_len(&self, me: usize) -> usize {
        self.mailbox(me).unexpected.len()
    }

    /// Receives that completed at post and receives that parked, summed
    /// over every mailbox. Above one worker thread the split depends on
    /// how the ranks interleaved.
    pub(crate) fn recv_paths(&self) -> (u64, u64) {
        (0..self.mailboxes.len()).fold((0, 0), |(at_post, parked), me| {
            let inner = self.mailbox(me);
            (at_post + inner.at_post, parked + inner.parked)
        })
    }

    /// Resolve an envelope against a posted receive: compute when the data
    /// is available at the receiver and, for rendezvous transfers, tell the
    /// sender when it is allowed to complete.
    fn complete(&self, env: &Envelope, post_time: f64, dst_global: usize) -> Completion {
        let data_avail = match env.protocol {
            WireProtocol::Eager { avail } => avail,
            WireProtocol::Rendezvous { rts_avail } => {
                let link = Link::new(&self.machine, env.src_global, dst_global);
                let (sender_done, data_avail) = link.rendezvous(rts_avail, post_time, env.bytes);
                if let Some(ack) = &env.ack {
                    // Waking the blocked sender happens inside `set` — in
                    // the event executor that is a queue push, never a park.
                    ack.set(sender_done);
                }
                data_avail
            }
        };
        Completion {
            data_avail,
            bytes: env.bytes,
            src_comm_rank: u32::try_from(env.src_comm_rank).expect("ranks fit in 32 bits"),
            tag: match env.channel {
                Channel::App { tag } => tag,
                Channel::Sys { .. } => -2,
            },
        }
    }
}

/// A message larger than the receive that matched it would have to be
/// cut short: MPI reports `MPI_ERR_TRUNCATE`, and the engine panics,
/// naming both global ranks and both sizes.
fn truncated(env: &Envelope, capacity: usize, dst_global: usize) -> ! {
    panic!(
        "truncated receive on communicator {:#x}: rank {} sent {} B to rank {}, whose receive \
         holds {capacity} B (MPI_ERR_TRUNCATE)",
        env.comm.0, env.src_global, env.bytes, dst_global
    )
}

/// Future for [`Engine::wait`].
pub struct WaitRecv<'e> {
    engine: &'e Engine,
    me: usize,
    slot: usize,
}

impl Future for WaitRecv<'_> {
    type Output = Completion;
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Completion> {
        let mut inner = self.engine.mailbox(self.me);
        if let Some(c) = inner.take(self.slot) {
            inner.waiter = None;
            return Poll::Ready(c);
        }
        // A re-poll with the same waker keeps its registration.
        let registered = matches!(&inner.waiter,
            Some((slot, w)) if *slot == self.slot && w.will_wake(cx.waker()));
        if !registered {
            inner.waiter = Some((self.slot, cx.waker().clone()));
        }
        Poll::Pending
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::CommId;
    use crate::message::{AckCell, AckWait, Channel, ANY_TAG};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::task::Wake;
    use siesta_perfmodel::{platform_a, Machine, MpiFlavor};

    fn engine(n: usize) -> Engine {
        Engine::new(Machine::new(platform_a(), MpiFlavor::OpenMpi), n)
    }

    fn eager_env(src: usize, tag: i32, bytes: usize, avail: f64) -> Envelope {
        Envelope {
            src_global: src,
            src_comm_rank: src,
            comm: CommId::WORLD,
            channel: Channel::App { tag },
            bytes,
            protocol: WireProtocol::Eager { avail },
            ack: None,
        }
    }

    fn rendezvous_env(src: usize, tag: i32, bytes: usize, rts: f64, ack: Arc<AckCell>) -> Envelope {
        Envelope {
            protocol: WireProtocol::Rendezvous { rts_avail: rts },
            ack: Some(ack),
            ..eager_env(src, tag, bytes, 0.0)
        }
    }

    fn key(src: usize, tag: i32) -> MatchKey {
        MatchKey {
            src_global: src,
            comm: CommId::WORLD,
            channel: Channel::App { tag },
        }
    }

    /// A waker that counts how often it fired — lets the tests drive
    /// `WaitRecv` by hand, deterministically, with no threads or sleeps.
    #[derive(Default)]
    struct CountWaker(AtomicUsize);
    impl Wake for CountWaker {
        fn wake(self: Arc<Self>) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    impl CountWaker {
        fn fired(&self) -> usize {
            self.0.load(Ordering::SeqCst)
        }
    }

    fn poll_with<F: Future + Unpin>(fut: &mut F, flag: &Arc<CountWaker>) -> Poll<F::Output> {
        let waker = Waker::from(flag.clone());
        Pin::new(fut).poll(&mut Context::from_waker(&waker))
    }

    /// A parked receive's slot (panics on a receive that completed at post).
    fn slot(h: RecvHandle) -> usize {
        match h {
            RecvHandle::Pending(slot) => slot,
            RecvHandle::Ready(_) => panic!("receive completed at post"),
        }
    }

    /// Finish a receive that must already be complete (all pure-matching
    /// tests are), taking its slot if it parked.
    fn wait_now(e: &Engine, me: usize, h: RecvHandle) -> Completion {
        match h {
            RecvHandle::Ready(c) => c,
            RecvHandle::Pending(slot) => {
                match poll_with(&mut e.wait(me, slot), &Arc::default()) {
                    Poll::Ready(c) => c,
                    Poll::Pending => panic!("receive in slot {slot} not complete"),
                }
            }
        }
    }

    /// Slots in `me`'s slab, in use or free.
    fn slab_len(e: &Engine, me: usize) -> usize {
        e.mailbox(me).done.len()
    }

    #[test]
    fn parked_slots_stay_32_bytes() {
        // A parked receive's slot holds its capacity while it waits, in
        // the room a completion takes anyway: the slab does not grow.
        assert!(std::mem::size_of::<Parked>() <= 32);
    }

    #[test]
    fn send_then_recv_matches_unexpected() {
        let e = engine(2);
        e.send(1, eager_env(0, 5, 64, 100.0));
        let h = e.post_recv(1, key(0, 5), usize::MAX, 50.0);
        let c = wait_now(&e, 1, h);
        assert_eq!(c.bytes, 64);
        assert_eq!(c.data_avail, 100.0);
        assert_eq!(c.src_comm_rank, 0);
    }

    #[test]
    fn queued_message_completes_at_post_without_a_slot() {
        let e = engine(2);
        e.send(1, eager_env(0, 5, 64, 100.0));
        let RecvHandle::Ready(c) = e.post_recv(1, key(0, 5), usize::MAX, 50.0) else {
            panic!("a queued message must complete its receive at post");
        };
        assert_eq!((c.bytes, c.data_avail, c.src_comm_rank, c.tag), (64, 100.0, 0, 5));
        assert_eq!(slab_len(&e, 1), 0, "no slot taken");
        assert_eq!(e.recv_paths(), (1, 0));
    }

    #[test]
    fn recv_then_send_matches_posted() {
        let e = engine(2);
        let s = slot(e.post_recv(1, key(0, 5), usize::MAX, 50.0));
        assert!(e.test(1, s).is_none());
        e.send(1, eager_env(0, 5, 64, 100.0));
        let c = e.test(1, s).expect("completed");
        assert_eq!(c.data_avail, 100.0);
        assert_eq!(e.recv_paths(), (0, 1));
    }

    #[test]
    fn non_overtaking_same_source_same_tag() {
        let e = engine(2);
        e.send(1, eager_env(0, 5, 1, 10.0));
        e.send(1, eager_env(0, 5, 2, 20.0));
        let h1 = e.post_recv(1, key(0, 5), usize::MAX, 0.0);
        let h2 = e.post_recv(1, key(0, 5), usize::MAX, 0.0);
        assert_eq!(wait_now(&e, 1, h1).bytes, 1);
        assert_eq!(wait_now(&e, 1, h2).bytes, 2);
    }

    #[test]
    fn tag_selectivity_skips_non_matching() {
        let e = engine(2);
        e.send(1, eager_env(0, 7, 1, 10.0));
        e.send(1, eager_env(0, 5, 2, 20.0));
        // Receive for tag 5 must take the second message.
        let h = e.post_recv(1, key(0, 5), usize::MAX, 0.0);
        assert_eq!(wait_now(&e, 1, h).bytes, 2);
        // Tag-7 message is still queued.
        assert_eq!(e.unexpected_len(1), 1);
        let h7 = e.post_recv(1, key(0, 7), usize::MAX, 0.0);
        assert_eq!(wait_now(&e, 1, h7).bytes, 1);
    }

    #[test]
    fn any_tag_takes_first_arrival_order() {
        let e = engine(2);
        e.send(1, eager_env(0, 7, 1, 10.0));
        e.send(1, eager_env(0, 5, 2, 20.0));
        let h = e.post_recv(1, key(0, ANY_TAG), usize::MAX, 0.0);
        let c = wait_now(&e, 1, h);
        assert_eq!(c.bytes, 1);
        assert_eq!(c.tag, 7);
    }

    #[test]
    fn posted_receives_match_in_post_order() {
        let e = engine(2);
        let h1 = e.post_recv(1, key(0, 5), usize::MAX, 10.0);
        let h2 = e.post_recv(1, key(0, 5), usize::MAX, 20.0);
        e.send(1, eager_env(0, 5, 1, 30.0));
        e.send(1, eager_env(0, 5, 2, 40.0));
        assert_eq!(wait_now(&e, 1, h1).bytes, 1);
        assert_eq!(wait_now(&e, 1, h2).bytes, 2);
    }

    #[test]
    fn slab_never_outgrows_the_peak_of_parked_receives() {
        // 10,000 cycles of 1–4 parked receives, completed in varying order,
        // with a receive that completes at post mixed in every third cycle.
        let e = engine(2);
        let mut peak = 0;
        for cycle in 0..10_000usize {
            let n = 1 + cycle % 4;
            peak = peak.max(n);
            let slots: Vec<usize> =
                (0..n).map(|k| slot(e.post_recv(1, key(0, k as i32), usize::MAX, 0.0))).collect();
            if cycle % 3 == 0 {
                e.send(1, eager_env(0, 99, 8, 1.0));
                let h = e.post_recv(1, key(0, 99), usize::MAX, 0.0);
                assert!(matches!(h, RecvHandle::Ready(_)));
            }
            for k in (0..n).rev() {
                e.send(1, eager_env(0, k as i32, k, 1.0));
            }
            for (k, &s) in slots.iter().enumerate().skip(cycle % 2).rev() {
                assert_eq!(wait_now(&e, 1, RecvHandle::Pending(s)).bytes, k);
            }
            if cycle % 2 == 1 {
                assert_eq!(e.test(1, slots[0]).map(|c| c.bytes), Some(0));
            }
        }
        assert_eq!(slab_len(&e, 1), peak);
        assert_eq!(e.recv_paths(), (3_334, 25_000));
    }

    #[test]
    fn rendezvous_acks_sender_and_times_transfer() {
        let e = engine(80); // two nodes on platform A (40 cores/node)
        let ack = Arc::new(AckCell::default());
        let bytes = 1 << 20;
        e.send(50, rendezvous_env(0, 1, bytes, 100.0, ack.clone())); // cross-node
        // Receive posted *later* than the RTS arrival: transfer waits for it.
        let post_time = 5_000.0;
        let h = e.post_recv(50, key(0, 1), usize::MAX, post_time);
        let c = wait_now(&e, 50, h);
        let sender_done = ack.try_get().expect("ack delivered");
        let net = e.machine().net;
        let expected_start = post_time + net.rendezvous_extra_ns;
        let expected_sender_done = expected_start + bytes as f64 / net.bandwidth(false);
        assert!((sender_done - expected_sender_done).abs() < 1e-6);
        assert!((c.data_avail - (expected_sender_done + net.latency(false))).abs() < 1e-6);
    }

    #[test]
    fn rendezvous_completed_at_post_acks_its_sender_once() {
        let e = engine(2);
        let ack = Arc::new(AckCell::default());
        let sender = Arc::new(CountWaker::default());
        let mut ack_wait = AckWait(&ack);
        assert!(poll_with(&mut ack_wait, &sender).is_pending(), "sender blocks on its ack");
        e.send(1, rendezvous_env(0, 1, 1 << 20, 100.0, ack.clone()));
        assert_eq!(sender.fired(), 0, "no ack before the receive is posted");
        let h = e.post_recv(1, key(0, 1), usize::MAX, 300.0);
        assert!(matches!(h, RecvHandle::Ready(_)));
        assert_eq!(sender.fired(), 1, "the post acks the sender");
        let (sender_done, _) = Link::new(e.machine(), 0, 1).rendezvous(100.0, 300.0, 1 << 20);
        assert_eq!(poll_with(&mut ack_wait, &sender), Poll::Ready(sender_done));
        // The engine kept no reference to the ack cell, so nothing can ack
        // again, and no slot is left to complete.
        assert_eq!(Arc::strong_count(&ack), 1);
        wait_now(&e, 1, h);
        assert_eq!((sender.fired(), slab_len(&e, 1)), (1, 0));
    }

    #[test]
    fn blocked_wait_is_woken_by_matching_send() {
        // The event-driven replacement for the old sleep-synchronized
        // cross-thread test: post a receive, observe the wait future park a
        // waker, deliver the send, and check the waker fired and the next
        // poll completes — all on one thread, in deterministic virtual time.
        let e = engine(2);
        let s = slot(e.post_recv(1, key(0, 3), usize::MAX, 0.0));
        let flag = Arc::new(CountWaker::default());
        let mut wait = e.wait(1, s);
        assert!(poll_with(&mut wait, &flag).is_pending());
        assert_eq!(flag.fired(), 0);

        e.send(1, eager_env(0, 3, 8, 42.0));
        assert_eq!(flag.fired(), 1, "send wakes the waiter");
        match poll_with(&mut wait, &flag) {
            Poll::Ready(c) => assert_eq!(c.data_avail, 42.0),
            Poll::Pending => panic!("woken wait must complete"),
        }
    }

    #[test]
    fn repolled_wait_is_woken_by_its_latest_waker() {
        let e = engine(2);
        let s = slot(e.post_recv(1, key(0, 3), usize::MAX, 0.0));
        let (first, second) = (Arc::new(CountWaker::default()), Arc::new(CountWaker::default()));
        let mut wait = e.wait(1, s);
        // Same waker twice: the registration is kept.
        assert!(poll_with(&mut wait, &first).is_pending());
        assert!(poll_with(&mut wait, &first).is_pending());
        e.send(1, eager_env(0, 3, 8, 42.0));
        assert_eq!(first.fired(), 1);
        assert!(poll_with(&mut wait, &first).is_ready());
        // A changed waker replaces the registered one.
        let s = slot(e.post_recv(1, key(0, 4), usize::MAX, 0.0));
        let mut wait = e.wait(1, s);
        assert!(poll_with(&mut wait, &first).is_pending());
        assert!(poll_with(&mut wait, &second).is_pending());
        e.send(1, eager_env(0, 4, 8, 43.0));
        assert_eq!((first.fired(), second.fired()), (1, 1));
        assert!(poll_with(&mut wait, &second).is_ready());
    }

    #[test]
    fn non_matching_send_does_not_wake_waiter() {
        let e = engine(2);
        let s = slot(e.post_recv(1, key(0, 3), usize::MAX, 0.0));
        let flag = Arc::new(CountWaker::default());
        let mut wait = e.wait(1, s);
        assert!(poll_with(&mut wait, &flag).is_pending());
        // Different tag: lands in the unexpected queue, no wake.
        e.send(1, eager_env(0, 9, 8, 42.0));
        assert_eq!(flag.fired(), 0);
        assert!(poll_with(&mut wait, &flag).is_pending());
    }

    #[test]
    fn filling_another_parked_slot_does_not_wake_waiter() {
        let e = engine(2);
        let early = slot(e.post_recv(1, key(0, 3), usize::MAX, 0.0));
        let late = slot(e.post_recv(1, key(0, 4), usize::MAX, 0.0));
        let flag = Arc::new(CountWaker::default());
        let mut wait = e.wait(1, late);
        assert!(poll_with(&mut wait, &flag).is_pending());
        e.send(1, eager_env(0, 3, 8, 42.0));
        assert_eq!(flag.fired(), 0, "the waiter needs the other slot");
        assert_eq!(e.test(1, early).map(|c| c.bytes), Some(8));
    }
}
