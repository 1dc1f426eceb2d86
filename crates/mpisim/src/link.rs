//! The point-to-point wire model: one copy of the formulas that turn a
//! message's send time, size and placement into virtual completion times.
//!
//! Application messages (`Rank::send` and `isend`, completed by the
//! matching engine) and the all-member collectives (evaluated in one pass
//! at their quorum, see `collectives.rs`) both time their transfers here,
//! so the two paths cannot drift apart. Every formula keeps the operand
//! order of the expressions it replaced: the collectives' evaluation must
//! reproduce the engine's clocks bit for bit.
//!
//! A formula has two kinds of terms: clocks, and costs that depend only on
//! the message's size and placement (a bandwidth division, a latency). A
//! [`Link`] resolves the costs per message, for its one placement. A
//! [`SizedWire`] resolves them once for a round of same-sized messages, on
//! both placements. Both then apply the same timing functions below.

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
        eager_arrival(self.net, t_send, self.net.transfer_ns(bytes, self.same_node))
    }

    /// Eager: how long the send keeps the sender busy (software overhead
    /// plus the local buffer copy).
    pub fn eager_busy(&self, bytes: usize) -> f64 {
        eager_busy(self.net, bytes)
    }

    /// Rendezvous: when the ready-to-send of a send started at `t_send`
    /// reaches the receiver.
    pub fn rts_arrival(&self, t_send: f64) -> f64 {
        rts_arrival(self.net, t_send, self.net.latency(self.same_node))
    }

    /// Rendezvous: how long the send keeps the sender busy before it can
    /// complete (its software overhead).
    pub fn rendezvous_busy(&self) -> f64 {
        self.net.send_overhead_ns
    }

    /// Rendezvous: `(sender_done, data_avail)` of a transfer whose
    /// ready-to-send arrives at `rts_avail` and whose receive was posted at
    /// `post_time` (see [`rendezvous`]).
    pub fn rendezvous(&self, rts_avail: f64, post_time: f64, bytes: usize) -> (f64, f64) {
        let same = self.same_node;
        let serialize = serialize_ns(self.net, bytes, same);
        rendezvous(self.net, rts_avail, post_time, serialize, self.net.latency(same))
    }
}

/// The placement-dependent costs of one message size, indexed by
/// `same_node as usize`.
type ByPlacement = [f64; 2];

/// A round of `bytes`-byte messages with its size-dependent costs resolved
/// once, on both placements: what the quorum evaluator applies to every
/// member of a round instead of building a [`Link`] per transfer. Each
/// method equals the [`Link`] method of the same name, bit for bit.
pub(crate) struct SizedWire<'a> {
    net: &'a NetParams,
    protocol: Protocol,
    eager_busy: f64,
    /// Eager: latency plus serialization.
    transfer: ByPlacement,
    /// Rendezvous: serialization alone.
    serialize: ByPlacement,
    latency: ByPlacement,
    reduce: f64,
}

impl<'a> SizedWire<'a> {
    /// Resolve `bytes`-byte messages on `machine`.
    pub fn new(machine: &'a Machine, bytes: usize) -> SizedWire<'a> {
        let net = &machine.net;
        SizedWire {
            net,
            protocol: net.protocol(bytes),
            eager_busy: eager_busy(net, bytes),
            transfer: [net.transfer_ns(bytes, false), net.transfer_ns(bytes, true)],
            serialize: [serialize_ns(net, bytes, false), serialize_ns(net, bytes, true)],
            latency: [net.latency(false), net.latency(true)],
            reduce: reduce_cost_ns(machine, bytes),
        }
    }

    /// Protocol of every message of the round.
    pub fn protocol(&self) -> Protocol {
        self.protocol
    }

    /// See [`Link::eager_arrival`].
    pub fn eager_arrival(&self, t_send: f64, same_node: bool) -> f64 {
        eager_arrival(self.net, t_send, self.transfer[same_node as usize])
    }

    /// See [`Link::eager_busy`].
    pub fn eager_busy(&self) -> f64 {
        self.eager_busy
    }

    /// See [`Link::rts_arrival`].
    pub fn rts_arrival(&self, t_send: f64, same_node: bool) -> f64 {
        rts_arrival(self.net, t_send, self.latency[same_node as usize])
    }

    /// See [`Link::rendezvous_busy`].
    pub fn rendezvous_busy(&self) -> f64 {
        self.net.send_overhead_ns
    }

    /// See [`Link::rendezvous`].
    pub fn rendezvous(&self, rts_avail: f64, post_time: f64, same_node: bool) -> (f64, f64) {
        let i = same_node as usize;
        rendezvous(self.net, rts_avail, post_time, self.serialize[i], self.latency[i])
    }

    /// See [`reduce_cost_ns`].
    pub fn reduce_cost(&self) -> f64 {
        self.reduce
    }
}

/// Serialization time of `bytes` over the placement's bandwidth.
fn serialize_ns(net: &NetParams, bytes: usize, same_node: bool) -> f64 {
    bytes as f64 / net.bandwidth(same_node)
}

/// Eager: software overhead plus the local buffer copy.
fn eager_busy(net: &NetParams, bytes: usize) -> f64 {
    net.send_overhead_ns + bytes as f64 / net.shm_bandwidth_bpns
}

/// Eager: a payload sent at `t_send` arrives after the send overhead and
/// the wire time `transfer` (`NetParams::transfer_ns`).
fn eager_arrival(net: &NetParams, t_send: f64, transfer: f64) -> f64 {
    t_send + net.send_overhead_ns + transfer
}

/// Rendezvous: the ready-to-send leaves after the send overhead and takes
/// one `latency`.
fn rts_arrival(net: &NetParams, t_send: f64, latency: f64) -> f64 {
    t_send + net.send_overhead_ns + latency
}

/// Rendezvous: `(sender_done, data_avail)`. The transfer cannot start
/// before both the ready-to-send (`rts_avail`) and the receive
/// (`post_time`); a handshake and the bulk transfer (`serialize`) follow,
/// and the data lands one `latency` later.
fn rendezvous(
    net: &NetParams,
    rts_avail: f64,
    post_time: f64,
    serialize: f64,
    latency: f64,
) -> (f64, f64) {
    let start = rts_avail.max(post_time) + net.rendezvous_extra_ns;
    let sender_done = start + serialize;
    (sender_done, sender_done + latency)
}

/// When a receive whose data is available at `data_avail` completes at the
/// receiver (its software overhead added).
pub(crate) fn recv_done(net: &NetParams, data_avail: f64) -> f64 {
    data_avail + net.recv_overhead_ns
}

/// Cycles to combine `bytes` of reduction operands (1 cycle/f64).
pub(crate) fn reduce_cost_ns(machine: &Machine, bytes: usize) -> f64 {
    (bytes as f64 / 8.0) / machine.cpu().freq_ghz
}

#[cfg(test)]
mod tests {
    use super::*;
    use siesta_perfmodel::{platform_a, MpiFlavor};

    #[test]
    fn sized_wire_equals_a_link_per_message_bit_for_bit() {
        let machine = Machine::new(platform_a(), MpiFlavor::Mpich);
        // Ranks 0 and 1 share a node; 0 and 40 do not.
        for (dst, same) in [(1, true), (40, false)] {
            let link = Link::new(&machine, 0, dst);
            for bytes in [0, 8, 1000, 8192, 8193, 1 << 20] {
                let wire = SizedWire::new(&machine, bytes);
                let (t, post) = (1234.5678, 98765.4321);
                assert_eq!(wire.protocol(), link.protocol(bytes));
                let bits = |x: f64| x.to_bits();
                assert_eq!(bits(wire.eager_arrival(t, same)), bits(link.eager_arrival(t, bytes)));
                assert_eq!(bits(wire.eager_busy()), bits(link.eager_busy(bytes)));
                assert_eq!(bits(wire.rts_arrival(t, same)), bits(link.rts_arrival(t)));
                assert_eq!(bits(wire.rendezvous_busy()), bits(link.rendezvous_busy()));
                let (a, b) = (wire.rendezvous(t, post, same), link.rendezvous(t, post, bytes));
                assert_eq!((bits(a.0), bits(a.1)), (bits(b.0), bits(b.1)));
                assert_eq!(bits(wire.reduce_cost()), bits(reduce_cost_ns(&machine, bytes)));
            }
        }
    }
}
