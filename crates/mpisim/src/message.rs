//! Message envelopes and receive matching keys.

use std::sync::Mutex;
use std::task::{Context, Poll, Waker};

use crate::comm::CommId;

/// Application-level message tag.
pub type Tag = i32;

/// Wildcard tag for receives (`MPI_ANY_TAG`). Source wildcards are *not*
/// supported — see the crate docs on determinism.
pub const ANY_TAG: Tag = -1;

/// Which matching space a message travels in.
///
/// Application messages match on tags like real MPI. Collective-internal
/// plumbing messages match on an exact 64-bit key derived from
/// (communicator, collective sequence number, round), so different
/// collectives can never interfere even across algorithm choices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Channel {
    App { tag: Tag },
    Sys { key: u64 },
}

/// Point-to-point wire protocol of an in-flight message.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WireProtocol {
    /// `avail` = virtual time the payload is available at the receiver.
    Eager { avail: f64 },
    /// `rts_avail` = virtual time the ready-to-send control message reaches
    /// the receiver; the data transfer is scheduled at match time.
    Rendezvous { rts_avail: f64 },
}

/// One-shot cell carrying the sender-side completion time of a rendezvous
/// transfer from the matching engine back to the blocked sender. The
/// engine [`AckCell::set`]s it when the receiver matches; the blocked
/// sender polls it.
#[derive(Debug, Default)]
pub struct AckCell {
    inner: Mutex<AckInner>,
}

#[derive(Debug, Default)]
struct AckInner {
    value: Option<f64>,
    waker: Option<Waker>,
}

impl AckCell {
    /// Deliver the value, waking the registered waiter if any.
    pub fn set(&self, value: f64) {
        let waker = {
            let mut inner = self.inner.lock().unwrap();
            inner.value = Some(value);
            inner.waker.take()
        };
        if let Some(w) = waker {
            w.wake();
        }
    }

    /// Non-blocking read (for `test`).
    pub fn try_get(&self) -> Option<f64> {
        self.inner.lock().unwrap().value
    }

    /// The value, or register `cx`'s waker to be woken by [`AckCell::set`].
    pub(crate) fn poll_value(&self, cx: &mut Context<'_>) -> Poll<f64> {
        let mut inner = self.inner.lock().unwrap();
        match inner.value {
            Some(v) => Poll::Ready(v),
            None => {
                inner.waker = Some(cx.waker().clone());
                Poll::Pending
            }
        }
    }
}

/// An in-flight message: everything the receiver's matching engine needs.
#[derive(Debug)]
pub struct Envelope {
    /// Global rank of the sender.
    pub src_global: usize,
    /// Sender's rank within the message's communicator (what
    /// `MPI_Status.MPI_SOURCE` reports).
    pub src_comm_rank: usize,
    pub comm: CommId,
    pub channel: Channel,
    pub bytes: usize,
    pub protocol: WireProtocol,
    /// For rendezvous messages: where to report the sender-side completion
    /// time once the transfer is scheduled.
    pub ack: Option<std::sync::Arc<AckCell>>,
}

/// What a completed receive reports back to the application.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecvStatus {
    /// Source rank *within the receive's communicator*.
    pub source: usize,
    pub tag: Tag,
    pub bytes: usize,
    /// Virtual time the receive completed at the receiver.
    pub complete_at: f64,
}

/// Matching key of a posted receive.
#[derive(Debug, Clone, Copy)]
pub struct MatchKey {
    /// Global rank the receive expects data from (already translated from
    /// the communicator-local source).
    pub src_global: usize,
    pub comm: CommId,
    pub channel: Channel,
}

impl MatchKey {
    /// Does `env` satisfy this receive?
    pub fn matches(&self, env: &Envelope) -> bool {
        if env.src_global != self.src_global || env.comm != self.comm {
            return false;
        }
        match (self.channel, env.channel) {
            (Channel::App { tag: want }, Channel::App { tag: got }) => {
                want == ANY_TAG || want == got
            }
            (Channel::Sys { key: want }, Channel::Sys { key: got }) => want == got,
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env(src: usize, comm: CommId, channel: Channel) -> Envelope {
        Envelope {
            src_global: src,
            src_comm_rank: src,
            comm,
            channel,
            bytes: 64,
            protocol: WireProtocol::Eager { avail: 1.0 },
            ack: None,
        }
    }

    #[test]
    fn matches_on_src_comm_tag() {
        let key = MatchKey {
            src_global: 3,
            comm: CommId::WORLD,
            channel: Channel::App { tag: 7 },
        };
        assert!(key.matches(&env(3, CommId::WORLD, Channel::App { tag: 7 })));
        assert!(!key.matches(&env(4, CommId::WORLD, Channel::App { tag: 7 })));
        assert!(!key.matches(&env(3, CommId(99), Channel::App { tag: 7 })));
        assert!(!key.matches(&env(3, CommId::WORLD, Channel::App { tag: 8 })));
    }

    #[test]
    fn any_tag_matches_all_app_tags_but_not_sys() {
        let key = MatchKey {
            src_global: 1,
            comm: CommId::WORLD,
            channel: Channel::App { tag: ANY_TAG },
        };
        assert!(key.matches(&env(1, CommId::WORLD, Channel::App { tag: 0 })));
        assert!(key.matches(&env(1, CommId::WORLD, Channel::App { tag: 123 })));
        assert!(!key.matches(&env(1, CommId::WORLD, Channel::Sys { key: 5 })));
    }

    #[test]
    fn sys_channel_needs_exact_key() {
        let key = MatchKey {
            src_global: 2,
            comm: CommId::WORLD,
            channel: Channel::Sys { key: 42 },
        };
        assert!(key.matches(&env(2, CommId::WORLD, Channel::Sys { key: 42 })));
        assert!(!key.matches(&env(2, CommId::WORLD, Channel::Sys { key: 43 })));
        assert!(!key.matches(&env(2, CommId::WORLD, Channel::App { tag: 42 })));
    }

    #[test]
    fn ack_cell_set_then_get() {
        let cell = AckCell::default();
        assert_eq!(cell.try_get(), None);
        cell.set(3.25);
        assert_eq!(cell.try_get(), Some(3.25));
    }
}
