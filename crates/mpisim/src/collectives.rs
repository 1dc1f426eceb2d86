//! Collective operations.
//!
//! Every collective runs a real algorithm (binomial trees, recursive
//! doubling, rings, pairwise and Bruck exchanges, dissemination), so its
//! virtual-time cost emerges from the same wire model as application
//! messages, and changes when the MPI flavor selects a different
//! algorithm, which is what the paper's Figure 7 measures. The algorithms
//! run on one of two paths:
//!
//! * **All-member collectives**: `barrier` (and the barrier inside
//!   `comm_dup`), `allreduce`, `allgather`, `alltoall` and
//!   `reduce_scatter_block`. No member can leave one of these before every
//!   member has arrived, so each member deposits its clock, wait sums and
//!   call `Plan` on the world's quorum board (`quorum.rs`). The last to
//!   arrive runs the algorithm's whole round schedule over every member in
//!   one pass (`evaluate`) and wakes the others. A round repeats what a
//!   receive posted before a blocking send through the matching engine
//!   computes, with the same wire formulas (`link.rs`), so the clocks are
//!   bit-identical to sending every round as a message.
//! * **Rooted and prefix collectives** (`bcast`, `reduce`, `gather(v)`,
//!   `scatter(v)`, `scan`) and `alltoallv` send point-to-point rounds over
//!   the internal plumbing channel. A member may leave a rooted collective
//!   early (the `bcast` root after its eager sends); a quorum would make
//!   such calls synchronizing and could deadlock programs that run.
//!   `alltoallv` would need every member's count vector, p² counts, on
//!   the board.
//!
//! Neither path touches the PMPI hook: an interposer sees one
//! `MPI_Allreduce`, not its internal rounds, exactly like real PMPI.

use std::fmt;
use std::sync::atomic::Ordering;

use siesta_perfmodel::net::Protocol;
use siesta_perfmodel::noise;
use siesta_perfmodel::{CollectiveAlgo, Machine};

use crate::comm::{CommId, Communicator};
use crate::engine::RecvHandle;
use crate::hook::MpiCall;
use crate::link::{recv_done, reduce_cost_ns, SizedWire};
use crate::message::{Channel, RecvStatus};
use crate::rank::{blocked, Rank, WaitSums};

/// Number of pipeline segments used by ring/chain algorithms for large
/// payloads.
const PIPELINE_SEGMENTS: usize = 8;

/// An all-member collective together with the algorithm it runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) enum Schedule {
    /// `MPI_Barrier` by dissemination.
    #[default]
    Barrier,
    /// The dissemination barrier inside `MPI_Comm_dup`.
    CommDup,
    /// Recursive doubling, folding the ranks beyond the largest power of
    /// two onto their neighbours first.
    AllreduceRecursiveDoubling,
    /// Ring reduce-scatter of `bytes / p` chunks, then ring allgather.
    AllreduceRing,
    ReduceScatterBlockRing,
    /// Recursive doubling (power-of-two communicators only).
    AllgatherRecursiveDoubling,
    AllgatherRing,
    AlltoallPairwise,
    AlltoallBruck,
}

impl Schedule {
    /// `(MPI call, algorithm)` for diagnostics.
    fn names(self) -> (&'static str, &'static str) {
        match self {
            Schedule::Barrier => ("MPI_Barrier", "dissemination"),
            Schedule::CommDup => ("MPI_Comm_dup", "dissemination"),
            Schedule::AllreduceRecursiveDoubling => ("MPI_Allreduce", "recursive doubling"),
            Schedule::AllreduceRing => ("MPI_Allreduce", "ring"),
            Schedule::ReduceScatterBlockRing => ("MPI_Reduce_scatter_block", "ring"),
            Schedule::AllgatherRecursiveDoubling => ("MPI_Allgather", "recursive doubling"),
            Schedule::AllgatherRing => ("MPI_Allgather", "ring"),
            Schedule::AlltoallPairwise => ("MPI_Alltoall", "pairwise"),
            Schedule::AlltoallBruck => ("MPI_Alltoall", "Bruck"),
        }
    }
}

/// What one member of an all-member collective asked for. Every member of
/// one call must deposit the same plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct Plan {
    pub schedule: Schedule,
    pub bytes: usize,
}

impl fmt::Display for Plan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (call, algo) = self.schedule.names();
        write!(f, "{call} of {} B ({algo})", self.bytes)
    }
}

/// One member's deposit on the quorum board, and its result after the
/// evaluation: the virtual clock and the wait sums, plus the call's plan.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Member {
    clock: f64,
    wait: WaitSums,
    plan: Plan,
}

/// Run an all-member collective's round schedule over every member of
/// `comm` (indexed by communicator rank), advancing each member's clock
/// and wait sums exactly as its rounds through the matching engine would.
/// Returns the number of transfers it computed (member-rounds).
///
/// Panics if the members disagree on the plan: they called different
/// collectives, or the same one with different sizes, at one point of the
/// communicator's collective order.
fn evaluate(machine: &Machine, comm: &Communicator, members: &mut [Member]) -> u64 {
    let plan = members[0].plan;
    if let Some(i) = members.iter().position(|m| m.plan != plan) {
        panic!(
            "mismatched collective on communicator {:#x}: rank {} called {plan}, \
             but rank {} called {}",
            comm.id.0,
            comm.global_of(0),
            comm.global_of(i),
            members[i].plan
        );
    }
    let p = members.len();
    let bytes = plan.bytes;
    let ring = shift(p, 1);
    let node =
        |global| u32::try_from(machine.platform.node_of(global)).expect("node ids fit in 32 bits");
    let mut rounds = Rounds {
        machine,
        nodes: comm.group.iter().map(node).collect(),
        post: Vec::new(),
        arrival: vec![0.0; p],
        members,
        transfers: 0,
    };
    match plan.schedule {
        Schedule::Barrier | Schedule::CommDup => {
            let mut dist = 1usize;
            while dist < p {
                rounds.exchange(shift(p, dist), 0, false);
                dist <<= 1;
            }
        }
        Schedule::AllreduceRecursiveDoubling => rounds.recursive_doubling_allreduce(bytes),
        Schedule::AllreduceRing => {
            let chunk = bytes.div_ceil(p);
            for _ in 0..p - 1 {
                rounds.exchange(ring, chunk, true);
            }
            for _ in 0..p - 1 {
                rounds.exchange(ring, chunk, false);
            }
        }
        Schedule::ReduceScatterBlockRing => {
            for _ in 0..p - 1 {
                rounds.exchange(ring, bytes, true);
            }
        }
        Schedule::AllgatherRecursiveDoubling => {
            let mut cur = bytes;
            let mut mask = 1usize;
            while mask < p {
                rounds.exchange(|r| Some(r ^ mask), cur, false);
                cur *= 2;
                mask <<= 1;
            }
        }
        Schedule::AllgatherRing => {
            for _ in 0..p - 1 {
                rounds.exchange(ring, bytes, false);
            }
        }
        Schedule::AlltoallPairwise => {
            for step in 1..p {
                rounds.exchange(shift(p, step), bytes, false);
            }
        }
        Schedule::AlltoallBruck => {
            let mut mask = 1usize;
            while mask < p {
                // Blocks whose index has this bit set travel this round.
                let blocks = (1..p).filter(|i| i & mask != 0).count();
                rounds.exchange(shift(p, mask), blocks * bytes, false);
                mask <<= 1;
            }
        }
    }
    rounds.transfers
}

/// The destination of member `r` in a round where every member sends `k`
/// places ahead, `(r + k) % p` for `k < p`, without an integer division.
fn shift(p: usize, k: usize) -> impl Fn(usize) -> Option<usize> + Copy {
    debug_assert!(k < p);
    move |r| {
        let d = r + k;
        Some(if d >= p { d - p } else { d })
    }
}

/// Round-by-round evaluation state of one all-member collective.
struct Rounds<'a> {
    machine: &'a Machine,
    members: &'a mut [Member],
    /// Each member's node, resolved once for every round: two members
    /// share the shared-memory path when their entries are equal.
    nodes: Vec<u32>,
    /// When each member posted its current receive. Only rendezvous
    /// transfers read it, so an evaluation whose rounds are all eager
    /// (barriers, small reductions) never allocates its 8 bytes per member.
    post: Vec<f64>,
    /// When the data of each member's current receive is available.
    arrival: Vec<f64>,
    /// Transfers computed so far (calls of [`Rounds::send`]).
    transfers: u64,
}

impl Rounds<'_> {
    /// One round in which every member `r` with `dst(r) = Some(d)` sends
    /// `bytes` to `d` and receives from the member that sends to it. As in
    /// a sendrecv, each member posts its receive at the round's start and
    /// then sends, so every send completes before any receive of the round.
    /// `reduce` charges combining the received operand.
    fn exchange(&mut self, dst: impl Fn(usize) -> Option<usize>, bytes: usize, reduce: bool) {
        let wire = SizedWire::new(self.machine, bytes);
        if wire.protocol() == Protocol::Rendezvous {
            self.post.clear();
            self.post.extend(self.members.iter().map(|m| m.clock));
        }
        for r in 0..self.members.len() {
            if let Some(d) = dst(r) {
                self.arrival[d] = self.send(&wire, r, d);
            }
        }
        for r in 0..self.members.len() {
            if dst(r).is_some() {
                self.recv(&wire, r, reduce);
            }
        }
    }

    /// A one-way transfer whose receiver posts at its current clock.
    fn one_way(&mut self, src: usize, dst: usize, bytes: usize, reduce: bool) {
        let wire = SizedWire::new(self.machine, bytes);
        if wire.protocol() == Protocol::Rendezvous {
            self.post.resize(self.members.len(), 0.0);
            self.post[dst] = self.members[dst].clock;
        }
        self.arrival[dst] = self.send(&wire, src, dst);
        self.recv(&wire, dst, reduce);
    }

    /// `src`'s blocking send of a `wire`-sized message to `dst`, whose
    /// receive was posted at `post[dst]`. Returns when the data is
    /// available at `dst`.
    ///
    /// Runs once per member and round. Left out of line (the compiler's
    /// choice without the attribute), each call reloads the round's state
    /// from memory, which cost about a fifth of the evaluator's time.
    #[inline(always)]
    fn send(&mut self, wire: &SizedWire, src: usize, dst: usize) -> f64 {
        self.transfers += 1;
        let same_node = self.nodes[src] == self.nodes[dst];
        let m = &mut self.members[src];
        match wire.protocol() {
            Protocol::Eager => {
                let arrival = wire.eager_arrival(m.clock, same_node);
                m.clock += wire.eager_busy();
                arrival
            }
            Protocol::Rendezvous => {
                let rts_avail = wire.rts_arrival(m.clock, same_node);
                let (sender_done, data_avail) =
                    wire.rendezvous(rts_avail, self.post[dst], same_node);
                let busy_until = m.clock + wire.rendezvous_busy();
                m.wait.note(sender_done - busy_until);
                m.clock = busy_until.max(sender_done);
                data_avail
            }
        }
    }

    /// Complete member `r`'s current receive of a `wire`-sized message.
    fn recv(&mut self, wire: &SizedWire, r: usize, reduce: bool) {
        let done = recv_done(&self.machine.net, self.arrival[r]);
        let m = &mut self.members[r];
        m.wait.note(done - m.clock);
        m.clock = m.clock.max(done);
        if reduce {
            m.clock += wire.reduce_cost();
        }
    }

    /// Recursive-doubling allreduce. With `rem = p − 2^⌊log₂p⌋`, the first
    /// `2·rem` ranks pair up: each even one hands its operand to its odd
    /// neighbour and sits the exchange rounds out, then gets the result
    /// back.
    fn recursive_doubling_allreduce(&mut self, bytes: usize) {
        let p = self.members.len();
        let pof2 = prev_pow2(p);
        let rem = p - pof2;
        for even in (0..2 * rem).step_by(2) {
            self.one_way(even, even + 1, bytes, true);
        }
        // Rank of each exchange participant among the 2^k that remain.
        let newrank =
            |r: usize| if r < 2 * rem { (r % 2 == 1).then_some(r / 2) } else { Some(r - rem) };
        let real = |nr: usize| if nr < rem { nr * 2 + 1 } else { nr + rem };
        let mut mask = 1usize;
        while mask < pof2 {
            self.exchange(|r| newrank(r).map(|nr| real(nr ^ mask)), bytes, true);
            mask <<= 1;
        }
        for even in (0..2 * rem).step_by(2) {
            self.one_way(even + 1, even, bytes, false);
        }
    }
}

impl Rank {
    fn skey(comm: CommId, seq: u32, round: u32) -> u64 {
        noise::combine(&[comm.0, seq as u64, round as u64, 0xC011])
    }

    /// Take part in an all-member collective over `comm`: deposit this
    /// member's clock, wait sums and plan on the quorum board, and resume
    /// with the state the last member's [`evaluate`] computed for it.
    pub(crate) async fn all_member(&mut self, comm: &Communicator, plan: Plan) {
        let seq = self.next_coll_seq(comm.id);
        if comm.size() <= 1 {
            return;
        }
        let me = Member { clock: self.clock, wait: self.wait, plan };
        self.set_blocked(blocked::quorum());
        let shared = &*self.shared;
        let out = shared
            .collectives
            .arrive(
                (comm.id.0, seq),
                comm.rank(),
                comm.size(),
                me,
                |members| {
                    let transfers = evaluate(shared.engine.machine(), comm, members);
                    shared.member_rounds.fetch_add(transfers, Ordering::Relaxed);
                },
                |members, m| members[m],
            )
            .await;
        self.clear_blocked();
        self.clock = out.clock;
        self.wait = out.wait;
    }

    async fn plumb_send(&mut self, comm: &Communicator, dst_local: usize, bytes: usize, key: u64) {
        self.p2p_send_blocking(
            comm.global_of(dst_local),
            comm.rank(),
            comm.id,
            Channel::Sys { key },
            bytes,
        )
        .await;
    }

    async fn plumb_recv(&mut self, comm: &Communicator, src_local: usize, key: u64) -> RecvStatus {
        let src_global = comm.global_of(src_local);
        let recv = self.post_recv_raw(src_global, comm.id, Channel::Sys { key }, usize::MAX);
        self.wait_recv_raw(recv, src_global).await
    }

    /// Deadlock-free exchange: post the receive before the blocking send.
    async fn plumb_sendrecv(
        &mut self,
        comm: &Communicator,
        dst_local: usize,
        src_local: usize,
        send_bytes: usize,
        key: u64,
    ) -> RecvStatus {
        let src_global = comm.global_of(src_local);
        let recv = self.post_recv_raw(src_global, comm.id, Channel::Sys { key }, usize::MAX);
        self.plumb_send(comm, dst_local, send_bytes, key).await;
        self.wait_recv_raw(recv, src_global).await
    }

    // ------------------------------------------------------------------
    // Public collectives
    // ------------------------------------------------------------------

    /// `MPI_Barrier`.
    pub async fn barrier(&mut self, comm: &Communicator) {
        let call = MpiCall::Barrier { comm: comm.id };
        self.hook_pre_c(&call, comm);
        let t0 = self.clock;
        self.clock += self.machine().net.collective_overhead_ns;
        self.all_member(comm, Plan { schedule: Schedule::Barrier, bytes: 0 }).await;
        self.account_mpi(t0, 0);
        self.hook_post_c(&call, comm);
    }

    /// `MPI_Bcast` of `bytes` from communicator-local `root`.
    pub async fn bcast(&mut self, comm: &Communicator, root: usize, bytes: usize) {
        let call = MpiCall::Bcast { comm: comm.id, root, bytes };
        self.hook_pre_c(&call, comm);
        let t0 = self.clock;
        self.clock += self.machine().net.collective_overhead_ns;
        let algo = self.machine().flavor.bcast_algo(comm.size(), bytes);
        let seq = self.next_coll_seq(comm.id);
        match algo {
            CollectiveAlgo::Ring => self.ring_bcast(comm, root, bytes, seq).await,
            _ => self.binomial_bcast(comm, root, bytes, seq).await,
        }
        self.account_mpi(t0, if comm.rank() == root { bytes } else { 0 });
        self.hook_post_c(&call, comm);
    }

    /// `MPI_Reduce` of `bytes` to communicator-local `root`.
    pub async fn reduce(&mut self, comm: &Communicator, root: usize, bytes: usize) {
        let call = MpiCall::Reduce { comm: comm.id, root, bytes };
        self.hook_pre_c(&call, comm);
        let t0 = self.clock;
        self.clock += self.machine().net.collective_overhead_ns;
        let algo = self.machine().flavor.reduce_algo(comm.size(), bytes);
        let seq = self.next_coll_seq(comm.id);
        match algo {
            CollectiveAlgo::Ring => self.chain_reduce(comm, root, bytes, seq).await,
            _ => self.binomial_reduce(comm, root, bytes, seq).await,
        }
        self.account_mpi(t0, bytes);
        self.hook_post_c(&call, comm);
    }

    /// `MPI_Allreduce` of `bytes`.
    pub async fn allreduce(&mut self, comm: &Communicator, bytes: usize) {
        let call = MpiCall::Allreduce { comm: comm.id, bytes };
        self.hook_pre_c(&call, comm);
        let t0 = self.clock;
        self.clock += self.machine().net.collective_overhead_ns;
        let schedule = match self.machine().flavor.allreduce_algo(comm.size(), bytes) {
            CollectiveAlgo::Ring => Schedule::AllreduceRing,
            _ => Schedule::AllreduceRecursiveDoubling,
        };
        self.all_member(comm, Plan { schedule, bytes }).await;
        self.account_mpi(t0, bytes);
        self.hook_post_c(&call, comm);
    }

    /// `MPI_Allgather`: each rank contributes `bytes`.
    pub async fn allgather(&mut self, comm: &Communicator, bytes: usize) {
        let call = MpiCall::Allgather { comm: comm.id, bytes };
        self.hook_pre_c(&call, comm);
        let t0 = self.clock;
        self.clock += self.machine().net.collective_overhead_ns;
        let p = comm.size();
        let schedule = match self.machine().flavor.allgather_algo(p, bytes) {
            CollectiveAlgo::RecursiveDoubling if p.is_power_of_two() => {
                Schedule::AllgatherRecursiveDoubling
            }
            _ => Schedule::AllgatherRing,
        };
        self.all_member(comm, Plan { schedule, bytes }).await;
        self.account_mpi(t0, bytes);
        self.hook_post_c(&call, comm);
    }

    /// `MPI_Alltoall`: each rank sends `bytes_per_peer` to every other rank.
    pub async fn alltoall(&mut self, comm: &Communicator, bytes_per_peer: usize) {
        let call = MpiCall::Alltoall { comm: comm.id, bytes_per_peer };
        self.hook_pre_c(&call, comm);
        let t0 = self.clock;
        self.clock += self.machine().net.collective_overhead_ns;
        let p = comm.size();
        let schedule = match self.machine().flavor.alltoall_algo(p, bytes_per_peer) {
            CollectiveAlgo::Bruck => Schedule::AlltoallBruck,
            _ => Schedule::AlltoallPairwise,
        };
        self.all_member(comm, Plan { schedule, bytes: bytes_per_peer }).await;
        // Local block copy.
        self.clock += bytes_per_peer as f64 / self.machine().net.shm_bandwidth_bpns;
        self.account_mpi(t0, bytes_per_peer * p.saturating_sub(1));
        self.hook_post_c(&call, comm);
    }

    /// `MPI_Alltoallv` with per-peer send and receive byte counts (indexed
    /// by communicator-local rank).
    ///
    /// Panics if a block's size differs from what its receiver expects:
    /// member i's `send_counts[j]` must equal member j's `recv_counts[i]`.
    pub async fn alltoallv(
        &mut self,
        comm: &Communicator,
        send_counts: &[usize],
        recv_counts: &[usize],
    ) {
        assert_eq!(send_counts.len(), comm.size());
        assert_eq!(recv_counts.len(), comm.size());
        let call = MpiCall::Alltoallv {
            comm: comm.id,
            send_counts: send_counts.to_vec(),
            recv_counts: recv_counts.to_vec(),
        };
        self.hook_pre_c(&call, comm);
        let t0 = self.clock;
        self.clock += self.machine().net.collective_overhead_ns;
        let seq = self.next_coll_seq(comm.id);
        let p = comm.size();
        let r = comm.rank();
        let check = |src: usize, sent: usize| {
            if sent != recv_counts[src] {
                panic!(
                    "mismatched MPI_Alltoallv counts on communicator {:#x}: rank {} sent {sent} B \
                     to rank {}, which expected {} B",
                    comm.id.0,
                    comm.global_of(src),
                    comm.global_of(r),
                    recv_counts[src]
                );
            }
        };
        check(r, send_counts[r]);
        for step in 1..p {
            let dst = (r + step) % p;
            let src = (r + p - step) % p;
            let key = Self::skey(comm.id, seq, step as u32);
            let got = self.plumb_sendrecv(comm, dst, src, send_counts[dst], key).await;
            check(src, got.bytes);
        }
        // Local block copy.
        self.clock += send_counts[r] as f64 / self.machine().net.shm_bandwidth_bpns;
        let sent: usize = send_counts.iter().enumerate().filter(|(i, _)| *i != r).map(|(_, b)| b).sum();
        self.account_mpi(t0, sent);
        self.hook_post_c(&call, comm);
    }

    /// `MPI_Gather` of `bytes` per rank to `root`.
    pub async fn gather(&mut self, comm: &Communicator, root: usize, bytes: usize) {
        let call = MpiCall::Gather { comm: comm.id, root, bytes };
        self.hook_pre_c(&call, comm);
        let t0 = self.clock;
        self.clock += self.machine().net.collective_overhead_ns;
        let algo = self.machine().flavor.gather_algo(comm.size(), bytes);
        let seq = self.next_coll_seq(comm.id);
        match algo {
            CollectiveAlgo::Linear => self.linear_gather(comm, root, bytes, seq).await,
            _ => self.binomial_gather(comm, root, bytes, seq).await,
        }
        self.account_mpi(t0, if comm.rank() == root { 0 } else { bytes });
        self.hook_post_c(&call, comm);
    }

    /// `MPI_Scatter` of `bytes` per rank from `root`.
    pub async fn scatter(&mut self, comm: &Communicator, root: usize, bytes: usize) {
        let call = MpiCall::Scatter { comm: comm.id, root, bytes };
        self.hook_pre_c(&call, comm);
        let t0 = self.clock;
        self.clock += self.machine().net.collective_overhead_ns;
        let algo = self.machine().flavor.gather_algo(comm.size(), bytes);
        let seq = self.next_coll_seq(comm.id);
        match algo {
            CollectiveAlgo::Linear => self.linear_scatter(comm, root, |_| bytes, seq).await,
            _ => self.binomial_scatter(comm, root, bytes, seq).await,
        }
        self.account_mpi(t0, if comm.rank() == root { bytes * comm.size().saturating_sub(1) } else { 0 });
        self.hook_post_c(&call, comm);
    }

    /// `MPI_Gatherv`: rank `i` contributes `counts[i]` bytes to `root`.
    pub async fn gatherv(&mut self, comm: &Communicator, root: usize, counts: &[usize]) {
        assert_eq!(counts.len(), comm.size());
        let call = MpiCall::Gatherv { comm: comm.id, root, counts: counts.to_vec() };
        self.hook_pre_c(&call, comm);
        let t0 = self.clock;
        self.clock += self.machine().net.collective_overhead_ns;
        let seq = self.next_coll_seq(comm.id);
        // Linear: correct for arbitrary per-rank sizes (the binomial
        // variant needs size prefixes).
        self.linear_gather(comm, root, counts[comm.rank()], seq).await;
        let sent = if comm.rank() == root { 0 } else { counts[comm.rank()] };
        self.account_mpi(t0, sent);
        self.hook_post_c(&call, comm);
    }

    /// `MPI_Scatterv`: `root` sends `counts[i]` bytes to rank `i`.
    pub async fn scatterv(&mut self, comm: &Communicator, root: usize, counts: &[usize]) {
        assert_eq!(counts.len(), comm.size());
        let call = MpiCall::Scatterv { comm: comm.id, root, counts: counts.to_vec() };
        self.hook_pre_c(&call, comm);
        let t0 = self.clock;
        self.clock += self.machine().net.collective_overhead_ns;
        let seq = self.next_coll_seq(comm.id);
        self.linear_scatter(comm, root, |s| counts[s], seq).await;
        let sent: usize = if comm.rank() == root {
            counts.iter().enumerate().filter(|(i, _)| *i != root).map(|(_, c)| c).sum()
        } else {
            0
        };
        self.account_mpi(t0, sent);
        self.hook_post_c(&call, comm);
    }

    /// `MPI_Scan` (inclusive prefix reduction) via the Hillis–Steele
    /// doubling schedule: ⌈log₂p⌉ rounds; in round k, rank `r` sends its
    /// partial to `r+2ᵏ` and receives from `r−2ᵏ`.
    pub async fn scan(&mut self, comm: &Communicator, bytes: usize) {
        let call = MpiCall::Scan { comm: comm.id, bytes };
        self.hook_pre_c(&call, comm);
        let t0 = self.clock;
        self.clock += self.machine().net.collective_overhead_ns;
        let seq = self.next_coll_seq(comm.id);
        let p = comm.size();
        let r = comm.rank();
        let mut d = 1usize;
        let mut round = 0u32;
        while d < p {
            let key = Self::skey(comm.id, seq, round);
            let recv = if r >= d {
                let src_global = comm.global_of(r - d);
                let channel = Channel::Sys { key };
                Some((self.post_recv_raw(src_global, comm.id, channel, usize::MAX), src_global))
            } else {
                None
            };
            if r + d < p {
                self.plumb_send(comm, r + d, bytes, key).await;
            }
            if let Some((recv, src)) = recv {
                self.wait_recv_raw(recv, src).await;
                self.clock += reduce_cost_ns(self.machine(), bytes);
            }
            d <<= 1;
            round += 1;
        }
        self.account_mpi(t0, bytes);
        self.hook_post_c(&call, comm);
    }

    /// `MPI_Reduce_scatter_block`: reduce a `p·bytes_per_rank` buffer and
    /// leave block `i` on rank `i` — implemented as the ring reduce-scatter
    /// phase (p−1 chunk exchanges with combining).
    pub async fn reduce_scatter_block(&mut self, comm: &Communicator, bytes_per_rank: usize) {
        let call = MpiCall::ReduceScatterBlock { comm: comm.id, bytes_per_rank };
        self.hook_pre_c(&call, comm);
        let t0 = self.clock;
        self.clock += self.machine().net.collective_overhead_ns;
        let plan = Plan { schedule: Schedule::ReduceScatterBlockRing, bytes: bytes_per_rank };
        self.all_member(comm, plan).await;
        self.account_mpi(t0, bytes_per_rank);
        self.hook_post_c(&call, comm);
    }

    // ------------------------------------------------------------------
    // Algorithms
    // ------------------------------------------------------------------

    async fn binomial_bcast(&mut self, comm: &Communicator, root: usize, bytes: usize, seq: u32) {
        let p = comm.size();
        if p <= 1 {
            return;
        }
        let relative = (comm.rank() + p - root) % p;
        let mut mask = 1usize;
        while mask < p {
            if relative & mask != 0 {
                let src = (relative - mask + root) % p;
                self.plumb_recv(comm, src, Self::skey(comm.id, seq, 0)).await;
                break;
            }
            mask <<= 1;
        }
        mask >>= 1;
        while mask > 0 {
            if relative + mask < p {
                let dst = (relative + mask + root) % p;
                self.plumb_send(comm, dst, bytes, Self::skey(comm.id, seq, 0)).await;
            }
            mask >>= 1;
        }
    }

    async fn ring_bcast(&mut self, comm: &Communicator, root: usize, bytes: usize, seq: u32) {
        let p = comm.size();
        if p <= 1 {
            return;
        }
        let relative = (comm.rank() + p - root) % p;
        let segs = if bytes >= PIPELINE_SEGMENTS * 4096 { PIPELINE_SEGMENTS } else { 2 };
        let seg = bytes / segs;
        let last = bytes - seg * (segs - 1);
        for s in 0..segs {
            let b = if s == segs - 1 { last } else { seg };
            let key = Self::skey(comm.id, seq, s as u32);
            if relative > 0 {
                let src = (relative - 1 + root) % p;
                self.plumb_recv(comm, src, key).await;
            }
            if relative < p - 1 {
                let dst = (relative + 1 + root) % p;
                self.plumb_send(comm, dst, b, key).await;
            }
        }
    }

    async fn binomial_reduce(&mut self, comm: &Communicator, root: usize, bytes: usize, seq: u32) {
        let p = comm.size();
        if p <= 1 {
            return;
        }
        let relative = (comm.rank() + p - root) % p;
        let mut mask = 1usize;
        while mask < p {
            let round = mask.trailing_zeros();
            if relative & mask == 0 {
                let src_rel = relative | mask;
                if src_rel < p {
                    let src = (src_rel + root) % p;
                    self.plumb_recv(comm, src, Self::skey(comm.id, seq, round)).await;
                    self.clock += reduce_cost_ns(self.machine(), bytes);
                }
            } else {
                let dst = (relative - mask + root) % p;
                self.plumb_send(comm, dst, bytes, Self::skey(comm.id, seq, round)).await;
                break;
            }
            mask <<= 1;
        }
    }

    async fn chain_reduce(&mut self, comm: &Communicator, root: usize, bytes: usize, seq: u32) {
        let p = comm.size();
        if p <= 1 {
            return;
        }
        let relative = (comm.rank() + p - root) % p;
        let segs = if bytes >= PIPELINE_SEGMENTS * 4096 { PIPELINE_SEGMENTS } else { 2 };
        let seg = bytes / segs;
        let last = bytes - seg * (segs - 1);
        for s in 0..segs {
            let b = if s == segs - 1 { last } else { seg };
            let key = Self::skey(comm.id, seq, s as u32);
            if relative < p - 1 {
                let src = (relative + 1 + root) % p;
                self.plumb_recv(comm, src, key).await;
                self.clock += reduce_cost_ns(self.machine(), b);
            }
            if relative > 0 {
                let dst = (relative - 1 + root) % p;
                self.plumb_send(comm, dst, b, key).await;
            }
        }
    }

    /// Every other member sends its `bytes` to `root`, which pre-posts
    /// all its receives.
    async fn linear_gather(&mut self, comm: &Communicator, root: usize, bytes: usize, seq: u32) {
        let p = comm.size();
        if p <= 1 {
            return;
        }
        if comm.rank() == root {
            // Post everything first so rendezvous senders can progress.
            let recvs: Vec<(RecvHandle, usize)> = (0..p)
                .filter(|&s| s != root)
                .map(|s| {
                    let src_global = comm.global_of(s);
                    let recv = self.post_recv_raw(
                        src_global,
                        comm.id,
                        Channel::Sys { key: Self::skey(comm.id, seq, s as u32) },
                        usize::MAX,
                    );
                    (recv, src_global)
                })
                .collect();
            for (recv, src) in recvs {
                self.wait_recv_raw(recv, src).await;
            }
        } else {
            let key = Self::skey(comm.id, seq, comm.rank() as u32);
            self.plumb_send(comm, root, bytes, key).await;
        }
    }

    async fn binomial_gather(&mut self, comm: &Communicator, root: usize, bytes: usize, seq: u32) {
        let p = comm.size();
        if p <= 1 {
            return;
        }
        let relative = (comm.rank() + p - root) % p;
        let mut mask = 1usize;
        let mut my_bytes = bytes;
        while mask < p {
            let round = mask.trailing_zeros();
            if relative & mask == 0 {
                let src_rel = relative + mask;
                if src_rel < p {
                    let src = (src_rel + root) % p;
                    let st = self.plumb_recv(comm, src, Self::skey(comm.id, seq, round)).await;
                    my_bytes += st.bytes;
                }
            } else {
                let dst = (relative - mask + root) % p;
                self.plumb_send(comm, dst, my_bytes, Self::skey(comm.id, seq, round)).await;
                break;
            }
            mask <<= 1;
        }
    }

    /// `root` sends `bytes(s)` to each other member `s` in rank order.
    async fn linear_scatter(
        &mut self,
        comm: &Communicator,
        root: usize,
        bytes: impl Fn(usize) -> usize,
        seq: u32,
    ) {
        let p = comm.size();
        if p <= 1 {
            return;
        }
        if comm.rank() == root {
            for s in 0..p {
                if s != root {
                    self.plumb_send(comm, s, bytes(s), Self::skey(comm.id, seq, s as u32)).await;
                }
            }
        } else {
            let key = Self::skey(comm.id, seq, comm.rank() as u32);
            self.plumb_recv(comm, root, key).await;
        }
    }

    async fn binomial_scatter(&mut self, comm: &Communicator, root: usize, bytes: usize, seq: u32) {
        let p = comm.size();
        if p <= 1 {
            return;
        }
        let relative = (comm.rank() + p - root) % p;
        let mut mask = 1usize;
        while mask < p {
            if relative & mask != 0 {
                let src = (relative - mask + root) % p;
                self.plumb_recv(comm, src, Self::skey(comm.id, seq, mask.trailing_zeros())).await;
                break;
            }
            mask <<= 1;
        }
        if relative == 0 {
            mask = 1;
            while mask < p {
                mask <<= 1;
            }
        }
        mask >>= 1;
        while mask > 0 {
            if relative + mask < p {
                let dst_rel = relative + mask;
                let subtree = mask.min(p - dst_rel);
                let dst = (dst_rel + root) % p;
                self.plumb_send(
                    comm,
                    dst,
                    subtree * bytes,
                    Self::skey(comm.id, seq, mask.trailing_zeros()),
                )
                .await;
            }
            mask >>= 1;
        }
    }
}

fn prev_pow2(n: usize) -> usize {
    let mut p = 1usize;
    while p * 2 <= n {
        p *= 2;
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evaluate_counts_one_transfer_per_sending_member_and_round() {
        let machine = Machine::default_eval();
        let p = 5;
        let comm = Communicator::world(p, 0);
        let transfers = |schedule, bytes| {
            let plan = Plan { schedule, bytes };
            let mut members = vec![Member { plan, ..Member::default() }; p];
            evaluate(&machine, &comm, &mut members)
        };
        // A ring: p − 1 rounds of p transfers.
        assert_eq!(transfers(Schedule::ReduceScatterBlockRing, 64), 4 * 5);
        // Dissemination: ⌈log₂ p⌉ rounds of p transfers.
        assert_eq!(transfers(Schedule::Barrier, 0), 3 * 5);
        // Recursive doubling folds rem = 1 pair (one transfer there and one
        // back) and exchanges among the remaining 4 for log₂ 4 rounds.
        assert_eq!(transfers(Schedule::AllreduceRecursiveDoubling, 64), 2 + 2 * 4);
    }

    #[test]
    fn shift_wraps_like_the_modulo() {
        for p in 1..9 {
            for k in 0..p {
                for r in 0..p {
                    assert_eq!(shift(p, k)(r), Some((r + k) % p));
                }
            }
        }
    }

    #[test]
    fn prev_pow2_values() {
        assert_eq!(prev_pow2(1), 1);
        assert_eq!(prev_pow2(2), 2);
        assert_eq!(prev_pow2(64), 64);
        assert_eq!(prev_pow2(3), 2);
        assert_eq!(prev_pow2(65), 64);
        assert_eq!(prev_pow2(529), 512);
    }
}
