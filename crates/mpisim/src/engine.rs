//! The message-matching engine: per-rank mailboxes with MPI matching
//! semantics and virtual-time completion computation.
//!
//! One mailbox per rank holds one buffer of entries in arrival and post
//! order: messages no receive has matched yet (a real MPI progress
//! engine's *unexpected* queue), receives waiting for their message (its
//! *posted* list), and receives their send completed. Matching happens at
//! whichever side arrives second:
//!
//! * a receive takes the first queued message it matches and completes at
//!   post: [`Engine::post_recv`] returns the completion itself
//!   ([`RecvHandle::Ready`]), and the receiver never waits;
//! * otherwise the receive waits in the buffer under a ticket, a number
//!   its mailbox hands out ([`RecvHandle::Pending`]). A send completes the
//!   first waiting receive it matches in place, and [`Engine::poll_wait`]
//!   or [`Engine::test`] takes the completion out by ticket.
//!
//! Either way, a message larger than the receive's capacity panics where
//! the two meet, as MPI reports `MPI_ERR_TRUNCATE`; a waiting receive
//! keeps its capacity in its entry until then.
//!
//! A receive whose message is already queued therefore takes the mailbox
//! lock once, and no receive hashes anything. A mailbox's buffer holds no
//! more entries than its rank has messages and receives in flight.
//!
//! All completion *times* are pure functions of the virtual timestamps
//! carried in the envelope and the posted receive, so results do not depend
//! on real thread scheduling. Non-overtaking order is preserved because each
//! sender state machine enqueues its messages in program order and matching
//! always scans the buffer front to back filtered by exact source.
//!
//! Waiting is event-driven: a rank blocked in [`Engine::poll_wait`]
//! registers its ticket and a [`Waker`] with its own mailbox and is woken
//! by the send that completes that receive — no condvars, no parked OS
//! threads.

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
    /// Waiting in the receiver's mailbox under this ticket until a send
    /// completes it: pass it to [`Engine::poll_wait`] or [`Engine::test`].
    Pending(u64),
}

/// One entry of a mailbox's buffer, which keeps arrival and post order.
#[derive(Debug)]
enum Entry {
    /// A message no receive has matched yet.
    Unexpected(Envelope),
    /// A posted receive waiting for its message. A larger message than
    /// `capacity` bytes is an error (see [`truncated`]).
    Waiting { ticket: u64, key: MatchKey, capacity: usize, post_time: f64 },
    /// Completed by the matching send, until [`Engine::poll_wait`] or
    /// [`Engine::test`] takes it.
    Done { ticket: u64, completion: Completion },
}

#[derive(Default)]
struct Mailbox {
    entries: Vec<Entry>,
    /// The mailbox owner, if currently blocked in [`Engine::poll_wait`]: the
    /// ticket it needs and how to resume it. Only the owning rank ever
    /// waits on its own mailbox, and on one receive at a time.
    waiter: Option<(u64, Waker)>,
    /// Receives that completed at post, and receives that waited. The
    /// latter count is also the next waiting receive's ticket.
    at_post: u64,
    parked: u64,
}

impl Mailbox {
    /// Remove the first queued message `key` matches, in arrival order.
    fn take_message(&mut self, key: &MatchKey) -> Option<Envelope> {
        let pos = self
            .entries
            .iter()
            .position(|e| matches!(e, Entry::Unexpected(env) if key.matches(env)))?;
        let Entry::Unexpected(env) = self.entries.remove(pos) else {
            unreachable!("the position holds a queued message")
        };
        Some(env)
    }

    /// Take the completion of the receive holding `ticket` if a send
    /// completed it.
    fn take(&mut self, ticket: u64) -> Option<Completion> {
        let pos = self
            .entries
            .iter()
            .position(|e| matches!(e, Entry::Done { ticket: t, .. } if *t == ticket))?;
        let Entry::Done { completion, .. } = self.entries.remove(pos) else {
            unreachable!("the position holds a completed receive")
        };
        Some(completion)
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
            // First waiting receive that matches, in post order.
            let waiting = inner.entries.iter().enumerate().find_map(|(pos, e)| match *e {
                Entry::Waiting { ticket, ref key, capacity, post_time } if key.matches(&env) => {
                    Some((pos, ticket, capacity, post_time))
                }
                _ => None,
            });
            if let Some((pos, ticket, capacity, post_time)) = waiting {
                if env.bytes > capacity {
                    // Unlock first, so the panic does not poison the mailbox.
                    drop(inner);
                    truncated(&env, capacity, dst_global);
                }
                let completion = self.complete(&env, post_time, dst_global);
                inner.entries[pos] = Entry::Done { ticket, completion };
                if inner.waiter.as_ref().is_some_and(|(t, _)| *t == ticket) {
                    inner.waiter.take().map(|(_, w)| w)
                } else {
                    None
                }
            } else {
                inner.entries.push(Entry::Unexpected(env));
                None
            }
        };
        if let Some(w) = wake {
            w.wake();
        }
    }

    /// Post a receive of at most `capacity` bytes for rank `me`. If an
    /// unexpected message already matches, the receive completes here and
    /// the handle carries its completion; otherwise it waits in `me`'s
    /// mailbox under a fresh ticket. Collective plumbing passes
    /// `usize::MAX`: it sizes its own messages.
    pub fn post_recv(
        &self,
        me: usize,
        key: MatchKey,
        capacity: usize,
        post_time: f64,
    ) -> RecvHandle {
        let mut inner = self.mailbox(me);
        if let Some(env) = inner.take_message(&key) {
            inner.at_post += 1;
            drop(inner);
            if env.bytes > capacity {
                truncated(&env, capacity, me);
            }
            return RecvHandle::Ready(self.complete(&env, post_time, me));
        }
        let ticket = inner.parked;
        inner.parked += 1;
        inner.entries.push(Entry::Waiting { ticket, key, capacity, post_time });
        RecvHandle::Pending(ticket)
    }

    /// Take the completion of the receive waiting under `ticket` in `me`'s
    /// mailbox, or register `me` as the mailbox's waiter, to be woken by
    /// the matching [`Engine::send`]. A re-poll with the same waker keeps
    /// its registration.
    pub fn poll_wait(&self, me: usize, ticket: u64, cx: &mut Context<'_>) -> Poll<Completion> {
        let mut inner = self.mailbox(me);
        if let Some(c) = inner.take(ticket) {
            inner.waiter = None;
            return Poll::Ready(c);
        }
        let registered = matches!(&inner.waiter,
            Some((t, w)) if *t == ticket && w.will_wake(cx.waker()));
        if !registered {
            inner.waiter = Some((ticket, cx.waker().clone()));
        }
        Poll::Pending
    }

    /// Non-blocking completion check of the receive waiting under `ticket`.
    pub fn test(&self, me: usize, ticket: u64) -> Option<Completion> {
        self.mailbox(me).take(ticket)
    }

    /// Count of messages sitting in `me`'s unexpected queue (diagnostics).
    pub fn unexpected_len(&self, me: usize) -> usize {
        self.mailbox(me).entries.iter().filter(|e| matches!(e, Entry::Unexpected(_))).count()
    }

    /// Receives that completed at post and receives that waited, summed
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::CommId;
    use crate::message::{AckCell, Channel, ANY_TAG};
    use std::future::{poll_fn, Future};
    use std::pin::Pin;
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
    /// a wait by hand, deterministically, with no threads or sleeps.
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

    /// The receive waiting under `ticket` in `me`'s mailbox, as a future.
    fn wait_on(e: &Engine, me: usize, ticket: u64) -> impl Future<Output = Completion> + '_ {
        poll_fn(move |cx| e.poll_wait(me, ticket, cx))
    }

    /// A waiting receive's ticket (panics on a receive that completed at
    /// post).
    fn slot(h: RecvHandle) -> u64 {
        match h {
            RecvHandle::Pending(ticket) => ticket,
            RecvHandle::Ready(_) => panic!("receive completed at post"),
        }
    }

    /// Finish a receive that must already be complete (all pure-matching
    /// tests are), taking its entry if it waited.
    fn wait_now(e: &Engine, me: usize, h: RecvHandle) -> Completion {
        match h {
            RecvHandle::Ready(c) => c,
            RecvHandle::Pending(ticket) => {
                match poll_with(&mut wait_on(e, me, ticket), &Arc::default()) {
                    Poll::Ready(c) => c,
                    Poll::Pending => panic!("receive with ticket {ticket} not complete"),
                }
            }
        }
    }

    /// Entries in `me`'s mailbox: queued messages, and receives waiting or
    /// completed but not yet taken.
    fn entry_count(e: &Engine, me: usize) -> usize {
        e.mailbox(me).entries.len()
    }

    #[test]
    fn mailbox_entries_fit_an_envelope_and_its_tag() {
        // A waiting receive holds its key, capacity and post time, and a
        // completed one its completion, in the room a queued message
        // takes anyway: one ordered buffer costs no more per entry than
        // the unexpected queue alone.
        let envelope = std::mem::size_of::<Envelope>();
        assert!(std::mem::size_of::<Entry>() <= envelope + std::mem::align_of::<Envelope>());
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
        assert_eq!(entry_count(&e, 1), 0, "no slot taken");
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
    fn mailbox_never_outgrows_its_peak_of_live_entries() {
        // 10,000 cycles of 1–4 waiting receives, completed in varying
        // order, with a receive that completes at post mixed in every third
        // cycle.
        let e = engine(2);
        let mut peak = 0;
        let mut note = |e: &Engine| peak = peak.max(entry_count(e, 1));
        for cycle in 0..10_000usize {
            let n = 1 + cycle % 4;
            let slots: Vec<u64> =
                (0..n).map(|k| slot(e.post_recv(1, key(0, k as i32), usize::MAX, 0.0))).collect();
            note(&e);
            if cycle % 3 == 0 {
                e.send(1, eager_env(0, 99, 8, 1.0));
                note(&e);
                let h = e.post_recv(1, key(0, 99), usize::MAX, 0.0);
                assert!(matches!(h, RecvHandle::Ready(_)));
            }
            for k in (0..n).rev() {
                e.send(1, eager_env(0, k as i32, k, 1.0));
                note(&e);
            }
            for (k, &s) in slots.iter().enumerate().skip(cycle % 2).rev() {
                assert_eq!(wait_now(&e, 1, RecvHandle::Pending(s)).bytes, k);
            }
            if cycle % 2 == 1 {
                assert_eq!(e.test(1, slots[0]).map(|c| c.bytes), Some(0));
            }
        }
        assert_eq!(peak, 5, "four waiting receives and one queued message");
        let inner = e.mailbox(1);
        assert_eq!(inner.entries.len(), 0, "every entry was taken");
        // The buffer grows by doubling from the peak it has seen, and
        // never for entries that were already taken.
        assert!(
            inner.entries.capacity() <= peak.next_power_of_two(),
            "room for {} entries after a peak of {peak}",
            inner.entries.capacity()
        );
        drop(inner);
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
        let mut ack_wait = poll_fn(|cx| ack.poll_value(cx));
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
        assert_eq!((sender.fired(), entry_count(&e, 1)), (1, 0));
    }

    #[test]
    fn blocked_wait_is_woken_by_matching_send() {
        // The event-driven replacement for the old sleep-synchronized
        // cross-thread test: post a receive, observe the wait park a
        // waker, deliver the send, and check the waker fired and the next
        // poll completes — all on one thread, in deterministic virtual time.
        let e = engine(2);
        let s = slot(e.post_recv(1, key(0, 3), usize::MAX, 0.0));
        let flag = Arc::new(CountWaker::default());
        let mut wait = wait_on(&e, 1, s);
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
        let mut wait = wait_on(&e, 1, s);
        // Same waker twice: the registration is kept.
        assert!(poll_with(&mut wait, &first).is_pending());
        assert!(poll_with(&mut wait, &first).is_pending());
        e.send(1, eager_env(0, 3, 8, 42.0));
        assert_eq!(first.fired(), 1);
        assert!(poll_with(&mut wait, &first).is_ready());
        // A changed waker replaces the registered one.
        let s = slot(e.post_recv(1, key(0, 4), usize::MAX, 0.0));
        let mut wait = wait_on(&e, 1, s);
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
        let mut wait = wait_on(&e, 1, s);
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
        let mut wait = wait_on(&e, 1, late);
        assert!(poll_with(&mut wait, &flag).is_pending());
        e.send(1, eager_env(0, 3, 8, 42.0));
        assert_eq!(flag.fired(), 0, "the waiter needs the other slot");
        assert_eq!(e.test(1, early).map(|c| c.bytes), Some(8));
    }
}
