//! The point-to-point wire model: one copy of the formulas that turn a
//! message's send time, size and placement into virtual completion times.
//!
//! Application messages (`Rank::send` and `isend`, completed by the
//! matching engine) and the all-member collectives (evaluated in one pass
//! at their quorum, see `collectives.rs`) both time their transfers here,
//! so the two paths cannot drift apart. Every formula keeps the operand
//! order of the expressions it replaced: the collectives' evaluation must
//! reproduce the engine's clocks bit for bit.

use siesta_perfmodel::net::{NetParams, Protocol};
use siesta_perfmodel::Machine;

/// The path between a sender and a receiver: the machine's messaging
/// parameters plus whether both ends share a node.
#[derive(Clone, Copy)]
pub(crate) struct Link<'a> {
    net: &'a NetParams,
    same_node: bool,
}

impl<'a> Link<'a> {
    /// The link from global rank `src` to global rank `dst` on `machine`.
    pub fn new(machine: &'a Machine, src: usize, dst: usize) -> Link<'a> {
        Link { net: &machine.net, same_node: machine.platform.same_node(src, dst) }
    }

    /// Protocol of a `bytes`-byte message.
    pub fn protocol(&self, bytes: usize) -> Protocol {
        self.net.protocol(bytes)
    }

    /// Eager: when a payload sent at `t_send` is available at the receiver.
    pub fn eager_arrival(&self, t_send: f64, bytes: usize) -> f64 {
        t_send + self.net.send_overhead_ns + self.net.transfer_ns(bytes, self.same_node)
    }

    /// Eager: how long the send keeps the sender busy (software overhead
    /// plus the local buffer copy).
    pub fn eager_busy(&self, bytes: usize) -> f64 {
        self.net.send_overhead_ns + bytes as f64 / self.net.shm_bandwidth_bpns
    }

    /// Rendezvous: when the ready-to-send of a send started at `t_send`
    /// reaches the receiver.
    pub fn rts_arrival(&self, t_send: f64) -> f64 {
        t_send + self.net.send_overhead_ns + self.net.latency(self.same_node)
    }

    /// Rendezvous: how long the send keeps the sender busy before it can
    /// complete (its software overhead).
    pub fn rendezvous_busy(&self) -> f64 {
        self.net.send_overhead_ns
    }

    /// Rendezvous: `(sender_done, data_avail)` of a transfer whose
    /// ready-to-send arrives at `rts_avail` and whose receive was posted at
    /// `post_time`. The transfer cannot start before both; a handshake and
    /// the bulk transfer follow, and the data lands one latency later.
    pub fn rendezvous(&self, rts_avail: f64, post_time: f64, bytes: usize) -> (f64, f64) {
        let start = rts_avail.max(post_time) + self.net.rendezvous_extra_ns;
        let sender_done = start + bytes as f64 / self.net.bandwidth(self.same_node);
        (sender_done, sender_done + self.net.latency(self.same_node))
    }
}

/// When a receive whose data is available at `data_avail` completes at the
/// receiver (its software overhead added).
pub(crate) fn recv_done(net: &NetParams, data_avail: f64) -> f64 {
    data_avail + net.recv_overhead_ns
}
