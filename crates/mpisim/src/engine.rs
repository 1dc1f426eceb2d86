//! The message-matching engine: per-rank mailboxes with MPI matching
//! semantics and virtual-time completion computation.
//!
//! One mailbox per rank holds an *unexpected-message* queue and a
//! *posted-receive* list, exactly like a real MPI progress engine. Matching
//! happens at whichever side arrives second:
//!
//! * a send that finds a matching posted receive completes it immediately;
//! * a receive that finds a matching unexpected message completes itself.
//!
//! All completion *times* are pure functions of the virtual timestamps
//! carried in the envelope and the posted receive, so results do not depend
//! on real thread scheduling. Non-overtaking order is preserved because each
//! sender state machine enqueues its messages in program order and matching
//! always scans queues front to back filtered by exact source.
//!
//! Waiting is event-driven: a rank blocked in [`Engine::wait`] registers a
//! [`Waker`] with its own mailbox and is woken by the send that completes
//! its receive — no condvars, no parked OS threads.

use std::collections::HashMap;
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::sync::Mutex;
use std::task::{Context, Poll, Waker};

use siesta_perfmodel::Machine;

use crate::link::Link;
use crate::message::{Channel, Envelope, MatchKey, WireProtocol};

/// Outcome of a matched receive, before receiver-side overhead is applied.
#[derive(Debug, Clone, Copy)]
pub struct Completion {
    /// Sender's rank within the message's communicator.
    pub src_comm_rank: usize,
    /// Channel the message arrived on (carries the concrete tag).
    pub channel: Channel,
    pub bytes: usize,
    /// Virtual time the payload is fully available at the receiver.
    pub data_avail: f64,
}

#[derive(Debug)]
struct Posted {
    id: u64,
    key: MatchKey,
    post_time: f64,
}

#[derive(Default)]
struct MailboxInner {
    unexpected: VecDeque<Envelope>,
    posted: Vec<Posted>,
    completions: HashMap<u64, Completion>,
    next_recv_id: u64,
    /// The mailbox owner, if currently blocked in [`Engine::wait`]: the
    /// receive id it needs and how to resume it. Only the owning rank ever
    /// waits on its own mailbox, and on one receive at a time.
    waiter: Option<(u64, Waker)>,
}

#[derive(Default)]
struct Mailbox {
    inner: Mutex<MailboxInner>,
}

/// Shared matching state for a whole world.
pub struct Engine {
    mailboxes: Vec<Mailbox>,
    machine: Machine,
}

impl Engine {
    pub fn new(machine: Machine, nranks: usize) -> Engine {
        Engine {
            mailboxes: (0..nranks).map(|_| Mailbox::default()).collect(),
            machine,
        }
    }

    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Deliver `env` to `dst_global`'s mailbox, completing a posted receive
    /// if one matches — and waking the owner if it was blocked on it.
    pub fn send(&self, dst_global: usize, env: Envelope) {
        let mb = &self.mailboxes[dst_global];
        let wake = {
            let mut inner = mb.inner.lock().unwrap();
            // First posted receive that matches, in post order.
            if let Some(pos) = inner.posted.iter().position(|p| p.key.matches(&env)) {
                let posted = inner.posted.remove(pos);
                let completion = self.complete(&env, posted.post_time, dst_global);
                inner.completions.insert(posted.id, completion);
                match &inner.waiter {
                    Some((id, _)) if inner.completions.contains_key(id) => {
                        inner.waiter.take().map(|(_, w)| w)
                    }
                    _ => None,
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

    /// Post a receive for rank `me`. If an unexpected message already
    /// matches, the receive completes immediately. Returns a receive id to
    /// pass to [`Engine::wait`] / [`Engine::test`].
    pub fn post_recv(&self, me: usize, key: MatchKey, post_time: f64) -> u64 {
        let mb = &self.mailboxes[me];
        let mut inner = mb.inner.lock().unwrap();
        let id = inner.next_recv_id;
        inner.next_recv_id += 1;
        if let Some(pos) = inner.unexpected.iter().position(|e| key.matches(e)) {
            let env = inner.unexpected.remove(pos).expect("position exists");
            let completion = self.complete(&env, post_time, me);
            inner.completions.insert(id, completion);
        } else {
            inner.posted.push(Posted { id, key, post_time });
        }
        id
    }

    /// Resolve when the receive `id` posted by `me` completes. The returned
    /// future registers `me` as the mailbox's waiter and is woken by the
    /// matching [`Engine::send`].
    pub fn wait(&self, me: usize, id: u64) -> WaitRecv<'_> {
        WaitRecv { engine: self, me, id }
    }

    /// Non-blocking completion check.
    pub fn test(&self, me: usize, id: u64) -> Option<Completion> {
        let mut inner = self.mailboxes[me].inner.lock().unwrap();
        inner.completions.remove(&id)
    }

    /// Count of messages sitting in `me`'s unexpected queue (diagnostics).
    pub fn unexpected_len(&self, me: usize) -> usize {
        self.mailboxes[me].inner.lock().unwrap().unexpected.len()
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
            src_comm_rank: env.src_comm_rank,
            channel: env.channel,
            bytes: env.bytes,
            data_avail,
        }
    }
}

/// Future for [`Engine::wait`].
pub struct WaitRecv<'e> {
    engine: &'e Engine,
    me: usize,
    id: u64,
}

impl Future for WaitRecv<'_> {
    type Output = Completion;
    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Completion> {
        let mut inner = self.engine.mailboxes[self.me].inner.lock().unwrap();
        if let Some(c) = inner.completions.remove(&self.id) {
            inner.waiter = None;
            Poll::Ready(c)
        } else {
            inner.waiter = Some((self.id, cx.waker().clone()));
            Poll::Pending
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::CommId;
    use crate::message::{AckCell, Channel, ANY_TAG};
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

    fn key(src: usize, tag: i32) -> MatchKey {
        MatchKey {
            src_global: src,
            comm: CommId::WORLD,
            channel: Channel::App { tag },
        }
    }

    /// A waker that records whether it fired — lets the tests drive
    /// `WaitRecv` by hand, deterministically, with no threads or sleeps.
    struct FlagWaker(std::sync::atomic::AtomicBool);
    impl Wake for FlagWaker {
        fn wake(self: Arc<Self>) {
            self.0.store(true, std::sync::atomic::Ordering::SeqCst);
        }
    }

    fn poll_wait(e: &Engine, me: usize, id: u64) -> Poll<Completion> {
        let flag = Arc::new(FlagWaker(std::sync::atomic::AtomicBool::new(false)));
        let waker = std::task::Waker::from(flag);
        let mut cx = Context::from_waker(&waker);
        Pin::new(&mut e.wait(me, id)).poll(&mut cx)
    }

    /// Wait that must already be complete (all pure-matching tests are).
    fn wait_now(e: &Engine, me: usize, id: u64) -> Completion {
        match poll_wait(e, me, id) {
            Poll::Ready(c) => c,
            Poll::Pending => panic!("receive {id} not complete"),
        }
    }

    #[test]
    fn send_then_recv_matches_unexpected() {
        let e = engine(2);
        e.send(1, eager_env(0, 5, 64, 100.0));
        let id = e.post_recv(1, key(0, 5), 50.0);
        let c = wait_now(&e, 1, id);
        assert_eq!(c.bytes, 64);
        assert_eq!(c.data_avail, 100.0);
        assert_eq!(c.src_comm_rank, 0);
    }

    #[test]
    fn recv_then_send_matches_posted() {
        let e = engine(2);
        let id = e.post_recv(1, key(0, 5), 50.0);
        assert!(e.test(1, id).is_none());
        e.send(1, eager_env(0, 5, 64, 100.0));
        let c = e.test(1, id).expect("completed");
        assert_eq!(c.data_avail, 100.0);
    }

    #[test]
    fn non_overtaking_same_source_same_tag() {
        let e = engine(2);
        e.send(1, eager_env(0, 5, 1, 10.0));
        e.send(1, eager_env(0, 5, 2, 20.0));
        let id1 = e.post_recv(1, key(0, 5), 0.0);
        let id2 = e.post_recv(1, key(0, 5), 0.0);
        assert_eq!(wait_now(&e, 1, id1).bytes, 1);
        assert_eq!(wait_now(&e, 1, id2).bytes, 2);
    }

    #[test]
    fn tag_selectivity_skips_non_matching() {
        let e = engine(2);
        e.send(1, eager_env(0, 7, 1, 10.0));
        e.send(1, eager_env(0, 5, 2, 20.0));
        // Receive for tag 5 must take the second message.
        let id = e.post_recv(1, key(0, 5), 0.0);
        assert_eq!(wait_now(&e, 1, id).bytes, 2);
        // Tag-7 message is still queued.
        assert_eq!(e.unexpected_len(1), 1);
        let id7 = e.post_recv(1, key(0, 7), 0.0);
        assert_eq!(wait_now(&e, 1, id7).bytes, 1);
    }

    #[test]
    fn any_tag_takes_first_arrival_order() {
        let e = engine(2);
        e.send(1, eager_env(0, 7, 1, 10.0));
        e.send(1, eager_env(0, 5, 2, 20.0));
        let id = e.post_recv(1, key(0, ANY_TAG), 0.0);
        let c = wait_now(&e, 1, id);
        assert_eq!(c.bytes, 1);
        assert_eq!(c.channel, Channel::App { tag: 7 });
    }

    #[test]
    fn posted_receives_match_in_post_order() {
        let e = engine(2);
        let id1 = e.post_recv(1, key(0, 5), 10.0);
        let id2 = e.post_recv(1, key(0, 5), 20.0);
        e.send(1, eager_env(0, 5, 1, 30.0));
        e.send(1, eager_env(0, 5, 2, 40.0));
        assert_eq!(wait_now(&e, 1, id1).bytes, 1);
        assert_eq!(wait_now(&e, 1, id2).bytes, 2);
    }

    #[test]
    fn rendezvous_acks_sender_and_times_transfer() {
        let e = engine(80); // two nodes on platform A (40 cores/node)
        let ack = Arc::new(AckCell::default());
        let bytes = 1 << 20;
        let env = Envelope {
            src_global: 0,
            src_comm_rank: 0,
            comm: CommId::WORLD,
            channel: Channel::App { tag: 1 },
            bytes,
            protocol: WireProtocol::Rendezvous { rts_avail: 100.0 },
            ack: Some(ack.clone()),
        };
        e.send(50, env); // cross-node
        // Receive posted *later* than the RTS arrival: transfer waits for it.
        let post_time = 5_000.0;
        let id = e.post_recv(50, key(0, 1), post_time);
        let c = wait_now(&e, 50, id);
        let sender_done = ack.try_get().expect("ack delivered");
        let net = e.machine().net;
        let expected_start = post_time + net.rendezvous_extra_ns;
        let expected_sender_done = expected_start + bytes as f64 / net.bandwidth(false);
        assert!((sender_done - expected_sender_done).abs() < 1e-6);
        assert!((c.data_avail - (expected_sender_done + net.latency(false))).abs() < 1e-6);
    }

    #[test]
    fn blocked_wait_is_woken_by_matching_send() {
        // The event-driven replacement for the old sleep-synchronized
        // cross-thread test: post a receive, observe the wait future park a
        // waker, deliver the send, and check the waker fired and the next
        // poll completes — all on one thread, in deterministic virtual time.
        let e = engine(2);
        let id = e.post_recv(1, key(0, 3), 0.0);

        let flag = Arc::new(FlagWaker(std::sync::atomic::AtomicBool::new(false)));
        let waker = std::task::Waker::from(flag.clone());
        let mut cx = Context::from_waker(&waker);
        let mut wait = e.wait(1, id);
        assert!(Pin::new(&mut wait).poll(&mut cx).is_pending());
        assert!(!flag.0.load(std::sync::atomic::Ordering::SeqCst));

        e.send(1, eager_env(0, 3, 8, 42.0));
        assert!(flag.0.load(std::sync::atomic::Ordering::SeqCst), "send wakes the waiter");
        match Pin::new(&mut wait).poll(&mut cx) {
            Poll::Ready(c) => assert_eq!(c.data_avail, 42.0),
            Poll::Pending => panic!("woken wait must complete"),
        }
    }

    #[test]
    fn non_matching_send_does_not_wake_waiter() {
        let e = engine(2);
        let id = e.post_recv(1, key(0, 3), 0.0);
        let flag = Arc::new(FlagWaker(std::sync::atomic::AtomicBool::new(false)));
        let waker = std::task::Waker::from(flag.clone());
        let mut cx = Context::from_waker(&waker);
        let mut wait = e.wait(1, id);
        assert!(Pin::new(&mut wait).poll(&mut cx).is_pending());
        // Different tag: lands in the unexpected queue, no wake.
        e.send(1, eager_env(0, 9, 8, 42.0));
        assert!(!flag.0.load(std::sync::atomic::Ordering::SeqCst));
        assert!(Pin::new(&mut wait).poll(&mut cx).is_pending());
    }
}
