//! The per-process MPI handle: point-to-point operations, computation,
//! communicator management, and the virtual clock.
//!
//! A `Rank` is the state a rank's resumable state machine threads through
//! its body. Blocking MPI calls are `async`: each is an explicit
//! continuation point where the state machine may return `Pending` to the
//! event scheduler (registering a waker with the matching engine, a
//! rendezvous ack cell, or a quorum slot) instead of parking an OS thread.
//! Non-blocking calls (`isend`, `irecv`) remain plain methods.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use siesta_perfmodel::net::Protocol;
use siesta_perfmodel::{CounterVec, KernelDesc, Machine};

use crate::collectives::{Member, Plan, Schedule};
use crate::comm::{CommId, Communicator};
use crate::engine::{Completion, Engine, RecvHandle};
use crate::hook::{HookCtx, MpiCall, PmpiHook, RankHook};
use crate::link::{recv_done, Link};
use crate::message::{AckCell, AckWait, Channel, Envelope, MatchKey, RecvStatus, Tag, WireProtocol};
use crate::obs::Collectors;
use crate::quorum::QuorumBoard;
use crate::request::{ReqState, Request, RequestTable};
use crate::world::RankStats;

/// Seed of every rank's measurement noise: fixed, so runs repeat.
const NOISE_SEED: u64 = 0x51e57a;

/// State shared by every rank of one world run.
pub(crate) struct Shared {
    pub engine: Engine,
    pub hook: Option<Arc<dyn PmpiHook>>,
    /// Half the hook's [`PmpiHook::overhead_ns`], read once per run and
    /// charged before and after each hooked call.
    pub hook_half_ns: f64,
    /// An observed run's collectors, called at each call's post after
    /// the hook.
    pub collectors: Option<Collectors>,
    /// Quorums of the all-member collectives, keyed by (communicator,
    /// collective sequence number).
    pub collectives: QuorumBoard<Member>,
    /// Transfers their evaluations computed: `obs.sim.quorum.member_rounds`
    /// of an observed run.
    pub member_rounds: AtomicU64,
    /// Quorums of `comm_split`, keyed by (parent communicator, derivation
    /// sequence number): a key space apart from the collectives'.
    pub splits: QuorumBoard<SplitEntry>,
    pub nranks: usize,
    /// Per-rank "why am I blocked" hints, written before every blocking
    /// await and cleared after. The scheduler reads them to build a
    /// per-rank diagnosis when the simulation deadlocks.
    pub blocked: Vec<AtomicU64>,
}

/// Encoding of the per-rank blocked-reason hints: kind in the top byte,
/// peer global rank (or `u32::MAX` for unknown) in the low 32 bits.
pub(crate) mod blocked {
    pub const NONE: u64 = 0;
    const RECV: u64 = 1;
    const ACK: u64 = 2;
    const SPLIT: u64 = 3;
    const QUORUM: u64 = 4;

    fn pack(kind: u64, peer: usize) -> u64 {
        (kind << 56) | (peer as u64 & 0xFFFF_FFFF)
    }

    pub fn recv(src_global: usize) -> u64 {
        pack(RECV, src_global)
    }

    pub fn ack(dst_global: usize) -> u64 {
        pack(ACK, dst_global)
    }

    pub fn split() -> u64 {
        pack(SPLIT, u32::MAX as usize)
    }

    pub fn quorum() -> u64 {
        pack(QUORUM, u32::MAX as usize)
    }

    pub fn describe(hint: u64) -> String {
        let peer = (hint & 0xFFFF_FFFF) as u32;
        let peer = if peer == u32::MAX { "?".to_string() } else { peer.to_string() };
        match hint >> 56 {
            RECV => format!("waiting for a message from global rank {peer}"),
            ACK => format!("waiting for rendezvous ack from global rank {peer}"),
            SPLIT => "waiting for comm_split contributions".to_string(),
            QUORUM => "waiting for the other members of a collective".to_string(),
            _ => "blocked".to_string(),
        }
    }
}

/// A rank's blocked-wait sums. The all-member collectives deposit them on
/// the quorum board and get them back advanced, so both paths apply one
/// rule, [`WaitSums::note`].
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct WaitSums {
    /// Inside the current hooked call: reset by `hook_pre_raw`, reported
    /// through `HookCtx::wait_ns` in the post hook.
    pub call_ns: f64,
    /// Over the whole run.
    pub total_ns: f64,
}

impl WaitSums {
    /// Record virtual time a rank is about to sit blocked: its clock is
    /// jumping forward by `delta_ns` to a completion time produced by a
    /// *peer* (message arrival, rendezvous ack, split fill, a collective's
    /// round). A negative, zero or NaN delta means the completion was
    /// already in the past: no wait. That case adds +0.0 instead of
    /// branching, which leaves every bit unchanged because both sums start
    /// at +0.0 and only grow.
    pub fn note(&mut self, delta_ns: f64) {
        let blocked = if delta_ns > 0.0 { delta_ns } else { 0.0 };
        self.call_ns += blocked;
        self.total_ns += blocked;
    }
}

/// One member's `MPI_Comm_split` contribution: `(color, key)` and its
/// entry clock. Data moves through the split board; *time* is charged by
/// an allgather-shaped cost model over the contributors' entry clocks, so
/// the result is still a pure function of virtual timestamps.
pub(crate) type SplitEntry = (i64, i64, f64);

/// A rank's sequence counters on one communicator: how many communicators
/// it derived from it (split/dup ids) and how many collectives it ran on
/// it (plumbing keys).
struct CommSeqs {
    comm: CommId,
    derive: u32,
    coll: u32,
}

/// One MPI process within a running [`crate::World`].
///
/// All methods mirror their MPI namesakes; ranks and tags follow MPI
/// conventions (communicator-local ranks, non-negative application tags).
/// Rank bodies receive the `Rank` by value and must return it so the world
/// can collect statistics.
pub struct Rank {
    pub(crate) shared: Arc<Shared>,
    /// This rank's own share of the hook ([`PmpiHook::for_rank`]), called
    /// in place of the shared hook's `pre` and `post`.
    hook: Option<Box<dyn RankHook>>,
    pub(crate) clock: f64,
    pub(crate) counters: CounterVec,
    pub(crate) requests: RequestTable,
    /// Per-communicator sequence counters, one entry per communicator
    /// the rank derived from or ran a collective on.
    seqs: Vec<CommSeqs>,
    pub(crate) compute_ns: f64,
    pub(crate) mpi_ns: f64,
    /// Blocked-wait time (see [`Rank::note_wait`]).
    pub(crate) wait: WaitSums,
    /// Virtual clock at the current call's pre hook (`HookCtx::call_start_ns`).
    pub(crate) cur_call_t0: f64,
    /// Global rank, next to `hooked_calls` so the two share one word.
    rank: u32,
    /// Hooked calls completed so far: feeds [`HookCtx::call_seq`].
    pub(crate) hooked_calls: u32,
    pub(crate) app_calls: u64,
    pub(crate) bytes_sent: u64,
    /// `compute` and `compute_counters` calls so far; also numbers their
    /// noise seeds.
    pub(crate) compute_events: u64,
    /// Rolling hash over (clock, call count) at every accounted MPI call —
    /// a fingerprint of this rank's event schedule in virtual time.
    pub(crate) sched_hash: u64,
}

impl Rank {
    pub(crate) fn new(shared: Arc<Shared>, rank: usize, hook: Option<Box<dyn RankHook>>) -> Rank {
        Rank {
            shared,
            hook,
            clock: 0.0,
            counters: CounterVec::ZERO,
            requests: RequestTable::new(),
            seqs: Vec::new(),
            compute_ns: 0.0,
            mpi_ns: 0.0,
            wait: WaitSums::default(),
            cur_call_t0: 0.0,
            rank: u32::try_from(rank).expect("global rank fits in u32"),
            hooked_calls: 0,
            app_calls: 0,
            bytes_sent: 0,
            compute_events: 0,
            sched_hash: 0,
        }
    }

    /// Global rank of this process.
    pub fn rank(&self) -> usize {
        self.rank as usize
    }

    /// Total processes in the world.
    pub fn nranks(&self) -> usize {
        self.shared.nranks
    }

    /// The world communicator.
    pub fn comm_world(&self) -> Communicator {
        Communicator::world(self.shared.nranks, self.rank())
    }

    /// Current virtual time in nanoseconds (`MPI_Wtime` analogue).
    pub fn wtime(&self) -> f64 {
        self.clock
    }

    /// Cumulative computation counters (what PAPI would report).
    pub fn counters(&self) -> CounterVec {
        self.counters
    }

    /// The execution environment.
    pub fn machine(&self) -> &Machine {
        self.shared.engine.machine()
    }

    /// Number of live non-blocking requests (diagnostics; a correct program
    /// ends with zero).
    pub fn outstanding_requests(&self) -> usize {
        self.requests.outstanding()
    }

    // ------------------------------------------------------------------
    // Computation
    // ------------------------------------------------------------------

    /// Execute application computation: advances the virtual clock and the
    /// computation counters through the platform's CPU model (with
    /// deterministic measurement noise). Not an MPI call; not hooked.
    pub fn compute(&mut self, kernel: &KernelDesc) {
        let seed = siesta_perfmodel::noise::combine(&[
            NOISE_SEED,
            u64::from(self.rank),
            self.compute_events,
        ]);
        self.compute_events += 1;
        let c = self.machine().cpu().counters_noisy(kernel, seed);
        let dt = self.machine().cpu().time_ns(&c);
        self.counters += c;
        self.clock += dt;
        self.compute_ns += dt;
    }

    /// Execute computation specified directly as a counter vector (used by
    /// proxy replay, where the work is a sum of block signatures rather
    /// than a single kernel). Observed with measurement noise like
    /// [`Rank::compute`]; not an MPI call; not hooked.
    pub fn compute_counters(&mut self, exact: &CounterVec) {
        let seed = siesta_perfmodel::noise::combine(&[
            NOISE_SEED ^ 0xC0DE,
            u64::from(self.rank),
            self.compute_events,
        ]);
        self.compute_events += 1;
        let c = self.machine().cpu().observe(exact, seed);
        let dt = self.machine().cpu().time_ns(&c);
        self.counters += c;
        self.clock += dt;
        self.compute_ns += dt;
    }

    /// Advance the virtual clock by a fixed interval without touching the
    /// counters — the "sleep" primitive that time-interval replay tools
    /// (ScalaBench and friends) use in place of real computation.
    pub fn sleep_ns(&mut self, ns: f64) {
        if ns > 0.0 {
            self.clock += ns;
            self.compute_ns += ns;
        }
    }

    // ------------------------------------------------------------------
    // Point-to-point
    // ------------------------------------------------------------------

    /// Blocking standard-mode send (`MPI_Send`).
    pub async fn send(&mut self, comm: &Communicator, dest: usize, tag: Tag, bytes: usize) {
        let call = MpiCall::Send { comm: comm.id, dest, tag, bytes };
        self.hook_pre_c(&call, comm);
        let t0 = self.clock;
        self.p2p_send_blocking(
            comm.global_of(dest),
            comm.rank(),
            comm.id,
            Channel::App { tag },
            bytes,
        )
        .await;
        self.account_mpi(t0, bytes);
        self.hook_post_c(&call, comm);
    }

    /// Blocking receive (`MPI_Recv`). `bytes` is the receive buffer size;
    /// the returned status reports the actual message size. A larger
    /// message panics, as `MPI_ERR_TRUNCATE`.
    pub async fn recv(
        &mut self,
        comm: &Communicator,
        src: usize,
        tag: Tag,
        bytes: usize,
    ) -> RecvStatus {
        let call = MpiCall::Recv { comm: comm.id, src, tag, bytes };
        self.hook_pre_c(&call, comm);
        let t0 = self.clock;
        let src_global = comm.global_of(src);
        let recv = self.post_recv_raw(src_global, comm.id, Channel::App { tag }, bytes);
        let status = self.wait_recv_raw(recv, src_global).await;
        self.account_mpi(t0, 0);
        self.hook_post_c(&call, comm);
        status
    }

    /// Non-blocking send (`MPI_Isend`).
    pub fn isend(&mut self, comm: &Communicator, dest: usize, tag: Tag, bytes: usize) -> Request {
        let (state, clock_advance) = self.p2p_isend_state(
            comm.global_of(dest),
            comm.rank(),
            comm.id,
            Channel::App { tag },
            bytes,
        );
        let req = self.requests.alloc(state);
        let call = MpiCall::Isend { comm: comm.id, dest, tag, bytes, req: req.0 };
        self.hook_pre_c(&call, comm);
        let t0 = self.clock;
        self.clock += clock_advance;
        self.account_mpi(t0, bytes);
        self.hook_post_c(&call, comm);
        req
    }

    /// Non-blocking receive (`MPI_Irecv`) of at most `bytes` bytes; a
    /// larger message panics when it matches.
    pub fn irecv(&mut self, comm: &Communicator, src: usize, tag: Tag, bytes: usize) -> Request {
        // Post first so the request id in the call record is real.
        let src_global = comm.global_of(src);
        let recv = self.post_recv_raw(src_global, comm.id, Channel::App { tag }, bytes);
        let req = self.requests.alloc(ReqState::RecvPending { recv, src_global });
        let call = MpiCall::Irecv { comm: comm.id, src, tag, bytes, req: req.0 };
        self.hook_pre_c(&call, comm);
        let t0 = self.clock;
        // Posting a receive costs a fraction of the receive overhead.
        self.clock += self.machine().net.recv_overhead_ns * 0.25;
        self.account_mpi(t0, 0);
        self.hook_post_c(&call, comm);
        req
    }

    /// Block until a request completes (`MPI_Wait`).
    pub async fn wait(&mut self, req: Request) -> RecvStatus {
        let call = MpiCall::Wait { req: req.0 };
        self.hook_pre(&call);
        let t0 = self.clock;
        let status = self.complete_request(req).await;
        self.account_mpi(t0, 0);
        self.hook_post(&call);
        status
    }

    /// Block until all requests complete (`MPI_Waitall`).
    pub async fn waitall(&mut self, reqs: &[Request]) -> Vec<RecvStatus> {
        let call = MpiCall::Waitall { reqs: reqs.iter().map(|r| r.0).collect() };
        self.hook_pre(&call);
        let t0 = self.clock;
        let mut statuses = Vec::with_capacity(reqs.len());
        for r in reqs {
            statuses.push(self.complete_request(*r).await);
        }
        self.account_mpi(t0, 0);
        self.hook_post(&call);
        statuses
    }

    /// Non-blocking completion test (`MPI_Test`). Completes and consumes
    /// the request on success; on failure it *yields* once to the scheduler
    /// so a test-poll loop cannot livelock cooperative execution. Poll
    /// counts (and thus the clock cost of a polling loop) depend on
    /// scheduling, so `test` is excluded from the byte-identical-schedule
    /// contract — real MPI makes the same non-guarantee.
    pub async fn test(&mut self, req: Request) -> Option<RecvStatus> {
        let ready = match self.requests.get(req) {
            Some(&ReqState::RecvPending { recv, .. }) => {
                let completion = match recv {
                    RecvHandle::Ready(c) => Some(c),
                    RecvHandle::Pending(ticket) => self.shared.engine.test(self.rank(), ticket),
                };
                completion.map(|c| self.finish_recv(&c))
            }
            Some(ReqState::SendDone { done }) => {
                let done = *done;
                self.note_wait(done - self.clock);
                self.clock = self.clock.max(done);
                Some(self.dummy_send_status())
            }
            Some(ReqState::SendRendezvous { ack, .. }) => match ack.try_get() {
                Some(done) => {
                    self.note_wait(done - self.clock);
                    self.clock = self.clock.max(done);
                    Some(self.dummy_send_status())
                }
                None => None,
            },
            None => panic!("test on inactive request"),
        };
        // Polling costs a little software time either way.
        self.clock += self.machine().net.recv_overhead_ns * 0.1;
        if ready.is_some() {
            // Consume the slot; state was already acted upon above.
            let _ = self.requests.take(req);
        } else {
            crate::exec::YieldNow::new().await;
        }
        ready
    }

    /// Combined blocking exchange (`MPI_Sendrecv`), deadlock-free under
    /// rendezvous because the receive is posted before the send blocks.
    /// A received message larger than `recv_bytes` panics.
    #[allow(clippy::too_many_arguments)]
    pub async fn sendrecv(
        &mut self,
        comm: &Communicator,
        dest: usize,
        send_tag: Tag,
        send_bytes: usize,
        src: usize,
        recv_tag: Tag,
        recv_bytes: usize,
    ) -> RecvStatus {
        let call = MpiCall::Sendrecv {
            comm: comm.id,
            dest,
            send_tag,
            send_bytes,
            src,
            recv_tag,
            recv_bytes,
        };
        self.hook_pre_c(&call, comm);
        let t0 = self.clock;
        let src_global = comm.global_of(src);
        let recv =
            self.post_recv_raw(src_global, comm.id, Channel::App { tag: recv_tag }, recv_bytes);
        self.p2p_send_blocking(
            comm.global_of(dest),
            comm.rank(),
            comm.id,
            Channel::App { tag: send_tag },
            send_bytes,
        )
        .await;
        let status = self.wait_recv_raw(recv, src_global).await;
        self.account_mpi(t0, send_bytes);
        self.hook_post_c(&call, comm);
        status
    }

    // ------------------------------------------------------------------
    // Communicator management
    // ------------------------------------------------------------------

    /// `MPI_Comm_split`: collective over `comm`; returns the new
    /// communicator containing this process, or `None` for negative colors.
    pub async fn comm_split(
        &mut self,
        comm: &Communicator,
        color: i64,
        key: i64,
    ) -> Option<Communicator> {
        let mut call = MpiCall::CommSplit { parent: comm.id, color, key, result: None };
        self.hook_pre_c(&call, comm);
        let t0 = self.clock;
        let seq = self.next_derive_seq(comm.id);
        self.set_blocked(blocked::split());
        let contributions = self
            .shared
            .splits
            .arrive(
                (comm.id.0, seq),
                comm.rank(),
                comm.size(),
                (color, key, self.clock),
                |_| {},
                |entries, _| entries.to_vec(),
            )
            .await;
        self.clear_blocked();
        // Allgather-shaped completion: everyone leaves at the same time.
        let t_all = contributions.iter().map(|c| c.2).fold(0.0f64, f64::max);
        let net = &self.machine().net;
        let p = comm.size();
        let span_nodes = !self
            .machine()
            .platform
            .same_node(comm.group.get(0), comm.group.get(p - 1));
        let rounds = (p as f64).log2().ceil().max(1.0);
        let cost = net.collective_overhead_ns
            + rounds * net.latency(!span_nodes)
            + (p * 16) as f64 / net.bandwidth(!span_nodes);
        self.note_wait(t_all + cost - self.clock);
        self.clock = self.clock.max(t_all + cost);
        let pairs: Vec<(i64, i64)> = contributions.iter().map(|c| (c.0, c.1)).collect();
        let result = comm.split_from(&pairs, seq, self.rank());
        if let MpiCall::CommSplit { result: r, .. } = &mut call {
            *r = result.as_ref().map(|c| c.id);
        }
        self.account_mpi(t0, 0);
        self.hook_post_c(&call, comm);
        result
    }

    /// `MPI_Comm_dup`: collective duplicate of `comm`.
    pub async fn comm_dup(&mut self, comm: &Communicator) -> Communicator {
        let mut call = MpiCall::CommDup { parent: comm.id, result: None };
        self.hook_pre_c(&call, comm);
        let t0 = self.clock;
        let seq = self.next_derive_seq(comm.id);
        self.all_member(comm, Plan { schedule: Schedule::CommDup, bytes: 0 }).await;
        let result = comm.dup_from(seq);
        if let MpiCall::CommDup { result: r, .. } = &mut call {
            *r = Some(result.id);
        }
        self.account_mpi(t0, 0);
        self.hook_post_c(&call, comm);
        result
    }

    /// `MPI_Comm_free`: local bookkeeping only.
    pub fn comm_free(&mut self, comm: Communicator) {
        let call = MpiCall::CommFree { comm: comm.id };
        self.hook_pre_c(&call, &comm);
        let t0 = self.clock;
        self.clock += self.machine().net.collective_overhead_ns * 0.1;
        self.account_mpi(t0, 0);
        self.hook_post_c(&call, &comm);
    }

    // ------------------------------------------------------------------
    // Internals shared with the collectives module
    // ------------------------------------------------------------------

    pub(crate) fn set_blocked(&self, hint: u64) {
        self.shared.blocked[self.rank()].store(hint, Ordering::Relaxed);
    }

    pub(crate) fn clear_blocked(&self) {
        self.shared.blocked[self.rank()].store(blocked::NONE, Ordering::Relaxed);
    }

    pub(crate) fn hook_pre(&mut self, call: &MpiCall) {
        self.hook_pre_raw(call, self.rank(), self.shared.nranks);
    }

    pub(crate) fn hook_post(&mut self, call: &MpiCall) {
        self.hook_post_raw(call, self.rank(), self.shared.nranks);
    }

    pub(crate) fn hook_pre_c(&mut self, call: &MpiCall, comm: &Communicator) {
        self.hook_pre_raw(call, comm.rank(), comm.size());
    }

    pub(crate) fn hook_post_c(&mut self, call: &MpiCall, comm: &Communicator) {
        self.hook_post_raw(call, comm.rank(), comm.size());
    }

    fn hook_pre_raw(&mut self, call: &MpiCall, comm_rank: usize, comm_size: usize) {
        // Hooked calls never nest (collective plumbing bypasses the hooks),
        // so one pre-slot per rank suffices for the per-call wait total.
        self.cur_call_t0 = self.clock;
        self.wait.call_ns = 0.0;
        let Some(hook) = &self.shared.hook else { return };
        // A rank hook records at post only.
        if self.hook.is_none() {
            hook.pre(&self.hook_ctx(comm_rank, comm_size), call);
        }
        self.clock += self.shared.hook_half_ns;
    }

    fn hook_post_raw(&mut self, call: &MpiCall, comm_rank: usize, comm_size: usize) {
        if self.shared.hook.is_none() && self.shared.collectors.is_none() {
            return;
        }
        let ctx = self.hook_ctx(comm_rank, comm_size);
        if let Some(hook) = &self.shared.hook {
            match &mut self.hook {
                Some(own) => own.post(&ctx, call),
                None => hook.post(&ctx, call),
            }
        }
        if let Some(collectors) = &self.shared.collectors {
            collectors.post(&ctx, call, self.requests.outstanding());
        }
        self.clock += self.shared.hook_half_ns;
        self.hooked_calls = self.hooked_calls.wrapping_add(1);
    }

    /// The current call's context: at `pre`, the clock is still the call's
    /// start and no wait has accrued, so the same fields serve both hooks.
    fn hook_ctx(&self, comm_rank: usize, comm_size: usize) -> HookCtx {
        HookCtx {
            rank: self.rank(),
            clock_ns: self.clock,
            counters: self.counters,
            comm_rank,
            comm_size,
            call_start_ns: self.cur_call_t0,
            wait_ns: self.wait.call_ns,
            call_seq: self.hooked_calls,
        }
    }

    /// Record virtual time the rank is about to sit blocked (see
    /// [`WaitSums::note`]).
    pub(crate) fn note_wait(&mut self, delta_ns: f64) {
        self.wait.note(delta_ns);
    }

    pub(crate) fn account_mpi(&mut self, t0: f64, sent_bytes: usize) {
        self.mpi_ns += self.clock - t0;
        self.app_calls += 1;
        self.bytes_sent += sent_bytes as u64;
        // Fold the virtual completion time of this call into the schedule
        // hash: two runs with identical hashes made the same calls at the
        // same virtual times, regardless of host threads or executor.
        self.sched_hash = siesta_perfmodel::noise::combine(&[
            self.sched_hash,
            self.clock.to_bits(),
            self.app_calls,
        ]);
    }

    /// `comm`'s sequence counters, starting both at 0 on first use.
    fn comm_seqs(&mut self, comm: CommId) -> &mut CommSeqs {
        match self.seqs.iter().position(|s| s.comm == comm) {
            Some(pos) => &mut self.seqs[pos],
            None => {
                // Most ranks only ever use MPI_COMM_WORLD: room for one.
                if self.seqs.is_empty() {
                    self.seqs.reserve_exact(1);
                }
                self.seqs.push(CommSeqs { comm, derive: 0, coll: 0 });
                self.seqs.last_mut().expect("just pushed")
            }
        }
    }

    fn next_derive_seq(&mut self, comm: CommId) -> u32 {
        let seqs = self.comm_seqs(comm);
        seqs.derive += 1;
        seqs.derive - 1
    }

    pub(crate) fn next_coll_seq(&mut self, comm: CommId) -> u32 {
        let seqs = self.comm_seqs(comm);
        seqs.coll += 1;
        seqs.coll - 1
    }

    /// Post a receive of at most `capacity` bytes in the matching engine
    /// (no clock change). Collective plumbing passes `usize::MAX`.
    pub(crate) fn post_recv_raw(
        &mut self,
        src_global: usize,
        comm: CommId,
        channel: Channel,
        capacity: usize,
    ) -> RecvHandle {
        let key = MatchKey { src_global, comm, channel };
        self.shared.engine.post_recv(self.rank(), key, capacity, self.clock)
    }

    /// Apply receiver-side completion: advance the clock past data arrival
    /// plus receive overhead, and build the status.
    pub(crate) fn finish_recv(&mut self, c: &Completion) -> RecvStatus {
        let done = recv_done(&self.machine().net, c.data_avail);
        self.note_wait(done - self.clock);
        self.clock = self.clock.max(done);
        RecvStatus {
            source: c.src_comm_rank as usize,
            tag: c.tag,
            bytes: c.bytes,
            complete_at: self.clock,
        }
    }

    /// Wait for an engine receive and apply completion. A receive that
    /// completed at post finishes without waiting. `src_global` is only a
    /// diagnostic hint for deadlock reports.
    pub(crate) async fn wait_recv_raw(
        &mut self,
        recv: RecvHandle,
        src_global: usize,
    ) -> RecvStatus {
        let c = match recv {
            RecvHandle::Ready(c) => c,
            RecvHandle::Pending(ticket) => {
                self.set_blocked(blocked::recv(src_global));
                let c = self.shared.engine.wait(self.rank(), ticket).await;
                self.clear_blocked();
                c
            }
        };
        self.finish_recv(&c)
    }

    /// Blocking send through the wire model (shared by app ops and
    /// collective plumbing): a non-blocking send, then its completion.
    pub(crate) async fn p2p_send_blocking(
        &mut self,
        dst_global: usize,
        src_comm_rank: usize,
        comm: CommId,
        channel: Channel,
        bytes: usize,
    ) {
        let (state, busy) = self.p2p_isend_state(dst_global, src_comm_rank, comm, channel, bytes);
        // The clock does not move while the send blocks.
        let busy_until = self.clock + busy;
        if let ReqState::SendRendezvous { ack, .. } = state {
            self.set_blocked(blocked::ack(dst_global));
            let sender_done = AckWait(&ack).await;
            self.clear_blocked();
            self.note_wait(sender_done - busy_until);
            self.clock = busy_until.max(sender_done);
        } else {
            self.clock = busy_until;
        }
    }

    /// Put a send on the wire. Returns its request state plus how long it
    /// keeps the sender busy: the whole eager send, or the software
    /// overhead before a rendezvous send can complete.
    fn p2p_isend_state(
        &mut self,
        dst_global: usize,
        src_comm_rank: usize,
        comm: CommId,
        channel: Channel,
        bytes: usize,
    ) -> (ReqState, f64) {
        let link = Link::new(self.shared.engine.machine(), self.rank(), dst_global);
        let (protocol, ack) = match link.protocol(bytes) {
            Protocol::Eager => (WireProtocol::Eager { avail: link.eager_arrival(self.clock, bytes) }, None),
            Protocol::Rendezvous => (
                WireProtocol::Rendezvous { rts_avail: link.rts_arrival(self.clock) },
                Some(Arc::new(AckCell::default())),
            ),
        };
        self.shared.engine.send(
            dst_global,
            Envelope {
                src_global: self.rank(),
                src_comm_rank,
                comm,
                channel,
                bytes,
                protocol,
                ack: ack.clone(),
            },
        );
        match ack {
            None => {
                let busy = link.eager_busy(bytes);
                (ReqState::SendDone { done: self.clock + busy }, busy)
            }
            Some(ack) => (ReqState::SendRendezvous { ack, dst_global }, link.rendezvous_busy()),
        }
    }

    async fn complete_request(&mut self, req: Request) -> RecvStatus {
        match self.requests.take(req) {
            ReqState::RecvPending { recv, src_global } => self.wait_recv_raw(recv, src_global).await,
            ReqState::SendDone { done } => {
                self.note_wait(done - self.clock);
                self.clock = self.clock.max(done);
                self.dummy_send_status()
            }
            ReqState::SendRendezvous { ack, dst_global } => {
                self.set_blocked(blocked::ack(dst_global));
                let done = AckWait(&ack).await;
                self.clear_blocked();
                self.note_wait(done - self.clock);
                self.clock = self.clock.max(done);
                self.dummy_send_status()
            }
        }
    }

    fn dummy_send_status(&self) -> RecvStatus {
        RecvStatus { source: self.rank(), tag: -3, bytes: 0, complete_at: self.clock }
    }

    /// The rank's statistics, once it completed. Hands its rank hook back
    /// first.
    pub(crate) fn into_stats(mut self) -> RankStats {
        if let Some(hook) = self.hook.take() {
            hook.finish();
        }
        RankStats {
            rank: self.rank(),
            finish_ns: self.clock,
            counters: self.counters,
            compute_ns: self.compute_ns,
            mpi_ns: self.mpi_ns,
            wait_ns: self.wait.total_ns,
            app_calls: self.app_calls,
            bytes_sent: self.bytes_sent,
            compute_events: self.compute_events,
            sched_hash: self.sched_hash,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_state_fits_in_232_bytes() {
        // Every rank's future holds its `Rank` for the whole run, so each
        // byte here costs 8 KiB at 8,192 ranks.
        let size = std::mem::size_of::<Rank>();
        assert!(size <= 232, "Rank is {size} B");
    }
}
