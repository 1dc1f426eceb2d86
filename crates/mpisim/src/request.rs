//! Non-blocking operation requests.
//!
//! Request slots are recycled through a free list, so — like real
//! `MPI_Request` values — the integer a program observes for a given logical
//! request depends on allocation history. This is exactly the behaviour the
//! paper's free-number pool normalizes away on the tracing side.

use std::sync::Arc;

use crate::engine::RecvHandle;
use crate::message::AckCell;

/// Handle to an outstanding non-blocking operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Request(pub usize);

#[derive(Debug)]
pub(crate) enum ReqState {
    /// Posted receive for a message from global rank `src_global`:
    /// complete at post, or parked in the engine.
    RecvPending { recv: RecvHandle, src_global: usize },
    /// Eager send: completed locally at a known virtual time.
    SendDone { done: f64 },
    /// Rendezvous send to global rank `dst_global`: completion time lands
    /// in this cell when the receiver matches.
    SendRendezvous { ack: Arc<AckCell>, dst_global: usize },
}

/// What kind of call produced a request — used by `MpiCall` records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReqKind {
    Send,
    Recv,
}

pub(crate) struct RequestTable {
    slots: Vec<Option<ReqState>>,
    free: Vec<usize>,
}

impl RequestTable {
    pub fn new() -> RequestTable {
        RequestTable { slots: Vec::new(), free: Vec::new() }
    }

    pub fn alloc(&mut self, state: ReqState) -> Request {
        if let Some(idx) = self.free.pop() {
            self.slots[idx] = Some(state);
            Request(idx)
        } else {
            self.slots.push(Some(state));
            Request(self.slots.len() - 1)
        }
    }

    /// Take the state out, releasing the slot for reuse.
    pub fn take(&mut self, req: Request) -> ReqState {
        let state = self.slots[req.0]
            .take()
            .expect("request already completed or never allocated");
        self.free.push(req.0);
        state
    }

    /// Peek without consuming (for `test`).
    pub fn get(&self, req: Request) -> Option<&ReqState> {
        self.slots.get(req.0).and_then(|s| s.as_ref())
    }

    /// Live requests: every empty slot is on the free list exactly once.
    pub fn outstanding(&self) -> usize {
        self.slots.len() - self.free.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_are_recycled_lifo() {
        let mut t = RequestTable::new();
        let a = t.alloc(ReqState::SendDone { done: 1.0 });
        let b = t.alloc(ReqState::SendDone { done: 2.0 });
        assert_eq!((a.0, b.0), (0, 1));
        t.take(a);
        let c = t.alloc(ReqState::SendDone { done: 3.0 });
        assert_eq!(c.0, 0, "freed slot is reused");
        assert_eq!(t.outstanding(), 2);
        t.take(b);
        t.take(c);
        assert_eq!(t.outstanding(), 0);
    }

    #[test]
    #[should_panic(expected = "already completed")]
    fn double_take_panics() {
        let mut t = RequestTable::new();
        let a = t.alloc(ReqState::SendDone { done: 1.0 });
        t.take(a);
        t.take(a);
    }

    #[test]
    fn request_slots_stay_40_bytes() {
        // Every rank holds one slot per outstanding request, and a receive
        // that completed at post carries its completion inline: a wider
        // slot shows in peak RSS.
        assert!(std::mem::size_of::<Option<ReqState>>() <= 40);
    }
}
