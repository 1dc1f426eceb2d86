//! The PMPI trace recorder (the `mpiP`-derived tool of Section 2.2–2.3).
//!
//! Installed as a [`PmpiHook`] on the runtime, the recorder observes every
//! application MPI call. At each call it:
//!
//! 1. closes the current *computation event* — the counter delta since the
//!    end of the previous MPI call (the paper's virtual `MPI_Compute`) —
//!    clustering it against cluster representatives with a relative-error threshold;
//! 2. normalizes the call into a [`CommEvent`] (relative ranks, pool-
//!    numbered handles) and gives it a local id through the rank's index;
//!    an event the rank has not seen before is first interned in the
//!    job's table of distinct events, so each is stored once per job;
//! 3. appends the event id to the rank's bounded stream buffer, which
//!    drains into an online Sequitur, and accounts the raw (uncompressed)
//!    trace bytes the record would occupy on disk.
//!
//! Each rank owns its recording state for the run, as each process owns
//! its copy of a PMPI library's: [`Recorder::for_rank`] moves the state
//! into the rank, which records without a lock and moves it back when it
//! completes. The interner's lock is the one ranks share, and a rank takes
//! it only at the first sight of an event. Hooks that wrap the recorder
//! call [`PmpiHook::post`] instead, which runs the same routine under the
//! rank's slot lock.

use std::mem;
use std::sync::{Arc, Mutex};

use siesta_grammar::{build_rank_grammars, Grammar, Sequitur};
use siesta_hash::FxHashMap;
use siesta_mpisim::{CommId, HookCtx, MpiCall, PmpiHook, RankHook};
use siesta_perfmodel::CounterVec;

use crate::event::{counters_close, rel_rank, CommEvent, ComputeStats, LocalEvent};
use crate::pool::HandleMap;
use crate::serialize;

/// Default bounded per-rank stream buffer, in event ids.
pub const DEFAULT_STREAM_BUF: usize = 4096;
/// Smallest accepted stream buffer. Below this the per-flush bookkeeping
/// dominates the ingest cost for no memory benefit.
pub const STREAM_BUF_MIN: usize = 16;
/// Largest accepted stream buffer (2²⁴ ids = 64 MiB per rank) — beyond
/// this "bounded buffering" is materialization by another name.
pub const STREAM_BUF_MAX: usize = 1 << 24;

/// Resolve the stream-buffer size: the `--stream-buf` value if given,
/// range-checked, else [`DEFAULT_STREAM_BUF`].
pub fn resolve_stream_buf(explicit: Option<usize>) -> Result<usize, String> {
    match explicit {
        None => Ok(DEFAULT_STREAM_BUF),
        Some(v) if (STREAM_BUF_MIN..=STREAM_BUF_MAX).contains(&v) => Ok(v),
        Some(v) => Err(format!(
            "--stream-buf: stream buffer must be in [{STREAM_BUF_MIN}, {STREAM_BUF_MAX}], \
             got {v}"
        )),
    }
}

/// Virtual cost charged per traced call: two counter reads plus the
/// record write. Produces the Table 3 overhead column.
const TRACE_OVERHEAD_NS: f64 = 600.0;

/// Tracing configuration.
#[derive(Debug, Clone, Copy)]
pub struct TraceConfig {
    /// Clustering threshold for computation events (paper: "a threshold to
    /// cluster similar computation events into one event").
    pub cluster_threshold: f64,
    /// Bounded per-rank buffer between the hook and the online Sequitur,
    /// in event ids. Set by `--stream-buf` via [`resolve_stream_buf`].
    pub stream_buf: usize,
}

impl TraceConfig {
    /// Ids a rank's stream buffer holds before it drains.
    fn stream_limit(&self) -> usize {
        self.stream_buf.max(1)
    }
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            cluster_threshold: 0.15,
            stream_buf: DEFAULT_STREAM_BUF,
        }
    }
}

/// Where a rank's id sequence goes: a bounded buffer feeding an online
/// Sequitur. The sink never holds more than the recorder's `stream_buf`
/// ids outside the grammar — a stream longer than the buffer exists only
/// as its compressed grammar, its length and the residual buffer. It
/// keeps no content hash: the grammar itself is the stream's identity
/// downstream.
#[derive(Default)]
struct StreamSink {
    /// Grows on demand up to the limit: preallocating the cap would cost
    /// `4·limit` bytes on every rank of a 10⁴–10⁶-rank world before a
    /// single event arrives.
    buf: Vec<u32>,
    /// Online builder, created at the first flush. A stream that never
    /// fills the buffer is built at `finish_streamed` instead, once per
    /// distinct sequence, so the ranks of an SPMD job mostly never hold
    /// one. Boxed so an idle sink carries a pointer, not a builder.
    online: Option<Box<Online>>,
}

/// A sink's online builder and the ids drained into it so far.
struct Online {
    builder: Sequitur,
    drained: usize,
}

impl StreamSink {
    /// Append `id`, draining the buffer once it holds `limit` ids.
    fn push(&mut self, id: u32, limit: usize) {
        self.buf.push(id);
        if self.buf.len() >= limit {
            self.flush();
        }
    }

    /// Drain the buffer into the online builder, creating it on first use.
    fn flush(&mut self) {
        if self.buf.is_empty() {
            return;
        }
        let online = self
            .online
            .get_or_insert_with(|| Box::new(Online { builder: Sequitur::new(), drained: 0 }));
        for &id in &self.buf {
            online.builder.push(id);
        }
        online.drained += self.buf.len();
        self.buf.clear();
    }

    /// Ids pushed so far.
    fn len(&self) -> usize {
        self.online.as_ref().map_or(0, |online| online.drained) + self.buf.len()
    }

    /// How often the buffer drained and its peak fill, worked out from
    /// the limit: a run drains only full buffers, and `finish_streamed`
    /// drains the residual of a sink that holds a builder. Call before
    /// that last drain.
    fn flushes_and_peak(&self, limit: usize) -> (u64, usize) {
        match &self.online {
            Some(online) => {
                let residual = usize::from(!self.buf.is_empty());
                ((online.drained / limit + residual) as u64, limit)
            }
            None => (0, self.buf.len()),
        }
    }
}

/// A rank's compute clusters as (local id, statistics), in opening order.
/// Most ranks open exactly one, which is stored inline.
#[derive(Default)]
enum Clusters {
    #[default]
    None,
    One(u32, ComputeStats),
    Many(Vec<(u32, ComputeStats)>),
}

impl Clusters {
    fn len(&self) -> usize {
        match self {
            Clusters::None => 0,
            Clusters::One(..) => 1,
            Clusters::Many(all) => all.len(),
        }
    }

    /// The first cluster, in opening order, whose representative is within
    /// `threshold` of `reading`.
    fn find_close(
        &mut self,
        reading: &CounterVec,
        threshold: f64,
    ) -> Option<(u32, &mut ComputeStats)> {
        let close = |stats: &ComputeStats| counters_close(&stats.repr, reading, threshold);
        match self {
            Clusters::None => None,
            Clusters::One(id, stats) => close(stats).then_some((*id, stats)),
            Clusters::Many(all) => all.iter_mut().find(|(_, s)| close(s)).map(|(id, s)| (*id, s)),
        }
    }

    fn push(&mut self, id: u32, stats: ComputeStats) {
        *self = match mem::take(self) {
            Clusters::None => Clusters::One(id, stats),
            Clusters::One(first_id, first) => Clusters::Many(vec![(first_id, first), (id, stats)]),
            Clusters::Many(mut all) => {
                // Exact, not doubling: a rank opens few clusters, and the
                // inline slot its first one had is already spent.
                all.reserve_exact(1);
                all.push((id, stats));
                Clusters::Many(all)
            }
        };
    }

    /// The clusters in opening order, without allocating.
    fn into_entries(self) -> impl Iterator<Item = (u32, ComputeStats)> {
        let (one, many) = match self {
            Clusters::None => (None, Vec::new()),
            Clusters::One(id, stats) => (Some((id, stats)), Vec::new()),
            Clusters::Many(all) => (None, all),
        };
        one.into_iter().chain(many)
    }
}

/// The job's distinct communication events, each held once and shared by
/// every rank that saw it, mapped to its interning id: the order the job
/// first saw them in, which races between ranks at any width above one.
/// [`Recorder::finish_streamed`] renumbers them by rank instead.
type Interner = Mutex<FxHashMap<Arc<CommEvent>, u32>>;

/// The shared copy of `event` and its interning id, interning it if no
/// rank has seen it yet.
fn intern(interner: &Interner, event: CommEvent) -> (Arc<CommEvent>, u32) {
    let mut index = interner.lock().expect("interner poisoned by a panicked rank");
    if let Some((shared, &id)) = index.get_key_value(&event) {
        return (Arc::clone(shared), id);
    }
    let id = index.len() as u32;
    let shared = Arc::new(event);
    index.insert(Arc::clone(&shared), id);
    (shared, id)
}

/// One rank's recording state. Nothing in it allocates until the rank
/// posts.
#[derive(Default)]
struct RankTrace {
    sink: StreamSink,
    /// The communication events this rank has seen, each pointing at the
    /// job's one copy, → (local id, interning id). Only this rank touches
    /// it, so a repeated event takes no lock other ranks share.
    comm_index: FxHashMap<Arc<CommEvent>, (u32, u32)>,
    /// The statistics' `repr` is the membership key. Scanned linearly —
    /// programs have few distinct computation behaviours.
    computes: Clusters,
    last_counters: CounterVec,
    normalizer: Normalizer,
    raw_bytes: usize,
}

impl RankTrace {
    /// Local ids count up from 0 over both kinds of entry.
    fn next_id(&self) -> u32 {
        (self.comm_index.len() + self.computes.len()) as u32
    }

    /// Record one MPI call at its post: both entry points run this.
    fn record(&mut self, ctx: &HookCtx, call: &MpiCall, interner: &Interner, config: &TraceConfig) {
        self.close_compute_interval(ctx.counters, config);
        let event = self.normalizer.normalize(ctx, call);
        self.record_comm(event, interner, config);
    }

    fn close_compute_interval(&mut self, counters: CounterVec, config: &TraceConfig) {
        let delta = counters - self.last_counters;
        self.last_counters = counters;
        if delta.total() <= 0.0 {
            return;
        }
        let id = match self.computes.find_close(&delta, config.cluster_threshold) {
            Some((id, stats)) => {
                stats.absorb(delta);
                id
            }
            None => {
                let id = self.next_id();
                self.computes.push(id, ComputeStats::new(delta));
                id
            }
        };
        self.sink.push(id, config.stream_limit());
        self.raw_bytes += serialize::compute_record_bytes();
    }

    fn record_comm(&mut self, event: CommEvent, interner: &Interner, config: &TraceConfig) {
        self.raw_bytes += serialize::comm_record_bytes(&event);
        let id = match self.comm_index.get(&event) {
            Some(&(id, _)) => id,
            None => {
                let id = self.next_id();
                let (shared, interned) = intern(interner, event);
                self.comm_index.insert(shared, (id, interned));
                id
            }
        };
        self.sink.push(id, config.stream_limit());
    }
}

/// What the recorder keeps for one rank, and what the rank holds during a
/// run: boxed, so the slot is a lock and a pointer, and the rank takes the
/// box for the run ([`Recorder::for_rank`]) and gives the same box back.
#[derive(Default)]
struct RankState {
    /// The recorder and rank that lent this state, while a rank holds it:
    /// [`RankHook::finish`] puts it back there. `None` in the recorder's
    /// slot, which would otherwise hold a reference cycle.
    home: Option<(Arc<Recorder>, usize)>,
    trace: RankTrace,
}

impl RankHook for RankState {
    fn post(&mut self, ctx: &HookCtx, call: &MpiCall) {
        let (recorder, _) = self.home.as_ref().expect("a rank's state knows its recorder");
        self.trace.record(ctx, call, &recorder.interner, &recorder.config);
    }

    fn finish(mut self: Box<Self>) {
        let (recorder, rank) = self.home.take().expect("a rank's state knows its recorder");
        *recorder.per_rank[rank].lock().expect("rank state poisoned") = Some(self);
    }
}

/// One rank's slot in the recorder: empty until the rank's first post
/// through [`PmpiHook::post`], and while the rank holds its state.
type Slot = Mutex<Option<Box<RankState>>>;

/// A rank's local table in local-id order, its communication entries
/// still holding interning ids. Consumes the rank's references to the
/// shared events.
fn local_table(
    comm_index: FxHashMap<Arc<CommEvent>, (u32, u32)>,
    computes: Clusters,
) -> Vec<LocalEvent> {
    // Every slot is overwritten: comm and compute ids partition 0..n.
    let mut table = vec![LocalEvent::Comm(0); comm_index.len() + computes.len()];
    for (_, (local, interned)) in comm_index {
        table[local as usize] = LocalEvent::Comm(interned);
    }
    for (local, stats) in computes.into_entries() {
        table[local as usize] = LocalEvent::Compute(stats);
    }
    table
}

/// Handle normalization state shared by any PMPI-style recorder: maps the
/// runtime's request and communicator handles to free-pool numbers and
/// rewrites call records into normalized [`CommEvent`]s. Public so baseline
/// tracers (e.g. the ScalaBench-like recorder) normalize identically.
#[derive(Default)]
pub struct Normalizer {
    /// Created at the rank's first request.
    reqs: Option<Box<HandleMap<usize>>>,
    /// Created at the rank's first derived communicator.
    comms: Option<Box<HandleMap<u64>>>,
}

/// `MPI_COMM_WORLD`'s pool number on every rank.
const WORLD_POOL_ID: u32 = 0;

impl Normalizer {
    /// Allocates nothing: `MPI_COMM_WORLD` holds pool number 0 without a
    /// map entry, and is answered without a lookup.
    pub fn new() -> Normalizer {
        Normalizer::default()
    }

    fn comm_id(&self, comm: CommId) -> u32 {
        if comm == CommId::WORLD {
            return WORLD_POOL_ID;
        }
        self.comms
            .as_ref()
            .and_then(|comms| comms.get(comm.0))
            .expect("communicator used before creation — split/dup not traced?")
    }

    /// Number a communicator the rank just derived.
    fn bind_comm(&mut self, comm: CommId) -> u32 {
        let comms = self.comms.get_or_insert_with(|| {
            let mut comms = Box::new(HandleMap::new());
            let world = comms.reserve();
            debug_assert_eq!(world, WORLD_POOL_ID);
            comms
        });
        comms.bind(comm.0)
    }

    fn bind_req(&mut self, req: usize) -> u32 {
        self.reqs.get_or_insert_with(|| Box::new(HandleMap::new())).bind(req)
    }

    fn unbind_req(&mut self, req: usize) -> Option<u32> {
        self.reqs.as_mut()?.unbind(req)
    }

    pub fn normalize(&mut self, ctx: &HookCtx, call: &MpiCall) -> CommEvent {
        let me = ctx.comm_rank;
        let size = ctx.comm_size;
        match call {
            MpiCall::Send { comm, dest, tag, bytes } => CommEvent::Send {
                rel: rel_rank(me, *dest, size),
                tag: *tag,
                bytes: *bytes as u64,
                comm: self.comm_id(*comm),
            },
            MpiCall::Recv { comm, src, tag, bytes } => CommEvent::Recv {
                rel: rel_rank(me, *src, size),
                tag: *tag,
                bytes: *bytes as u64,
                comm: self.comm_id(*comm),
            },
            MpiCall::Isend { comm, dest, tag, bytes, req } => CommEvent::Isend {
                rel: rel_rank(me, *dest, size),
                tag: *tag,
                bytes: *bytes as u64,
                comm: self.comm_id(*comm),
                req: self.bind_req(*req),
            },
            MpiCall::Irecv { comm, src, tag, bytes, req } => CommEvent::Irecv {
                rel: rel_rank(me, *src, size),
                tag: *tag,
                bytes: *bytes as u64,
                comm: self.comm_id(*comm),
                req: self.bind_req(*req),
            },
            MpiCall::Wait { req } => {
                let id = self.unbind_req(*req).expect("wait on untraced request");
                CommEvent::Wait { req: id }
            }
            MpiCall::Waitall { reqs } => {
                let ids = reqs
                    .iter()
                    .map(|r| self.unbind_req(*r).expect("waitall on untraced request"))
                    .collect();
                CommEvent::Waitall { reqs: ids }
            }
            MpiCall::Sendrecv { comm, dest, send_tag, send_bytes, src, recv_tag, recv_bytes } => {
                CommEvent::Sendrecv {
                    dest_rel: rel_rank(me, *dest, size),
                    send_tag: *send_tag,
                    send_bytes: *send_bytes as u64,
                    src_rel: rel_rank(me, *src, size),
                    recv_tag: *recv_tag,
                    recv_bytes: *recv_bytes as u64,
                    comm: self.comm_id(*comm),
                }
            }
            MpiCall::Barrier { comm } => CommEvent::Barrier { comm: self.comm_id(*comm) },
            MpiCall::Bcast { comm, root, bytes } => CommEvent::Bcast {
                comm: self.comm_id(*comm),
                root: *root as u32,
                bytes: *bytes as u64,
            },
            MpiCall::Reduce { comm, root, bytes } => CommEvent::Reduce {
                comm: self.comm_id(*comm),
                root: *root as u32,
                bytes: *bytes as u64,
            },
            MpiCall::Allreduce { comm, bytes } => CommEvent::Allreduce {
                comm: self.comm_id(*comm),
                bytes: *bytes as u64,
            },
            MpiCall::Allgather { comm, bytes } => CommEvent::Allgather {
                comm: self.comm_id(*comm),
                bytes: *bytes as u64,
            },
            MpiCall::Alltoall { comm, bytes_per_peer } => CommEvent::Alltoall {
                comm: self.comm_id(*comm),
                bytes_per_peer: *bytes_per_peer as u64,
            },
            MpiCall::Alltoallv { comm, send_counts, recv_counts } => CommEvent::Alltoallv {
                comm: self.comm_id(*comm),
                send_counts: send_counts.iter().map(|&c| c as u64).collect(),
                recv_counts: recv_counts.iter().map(|&c| c as u64).collect(),
            },
            MpiCall::Gather { comm, root, bytes } => CommEvent::Gather {
                comm: self.comm_id(*comm),
                root: *root as u32,
                bytes: *bytes as u64,
            },
            MpiCall::Scatter { comm, root, bytes } => CommEvent::Scatter {
                comm: self.comm_id(*comm),
                root: *root as u32,
                bytes: *bytes as u64,
            },
            MpiCall::Gatherv { comm, root, counts } => CommEvent::Gatherv {
                comm: self.comm_id(*comm),
                root: *root as u32,
                counts: counts.iter().map(|&c| c as u64).collect(),
            },
            MpiCall::Scatterv { comm, root, counts } => CommEvent::Scatterv {
                comm: self.comm_id(*comm),
                root: *root as u32,
                counts: counts.iter().map(|&c| c as u64).collect(),
            },
            MpiCall::Scan { comm, bytes } => CommEvent::Scan {
                comm: self.comm_id(*comm),
                bytes: *bytes as u64,
            },
            MpiCall::ReduceScatterBlock { comm, bytes_per_rank } => {
                CommEvent::ReduceScatterBlock {
                    comm: self.comm_id(*comm),
                    bytes_per_rank: *bytes_per_rank as u64,
                }
            }
            MpiCall::CommSplit { parent, color, key, result } => {
                let parent_id = self.comm_id(*parent);
                let result_id = result.map(|c| self.bind_comm(c));
                CommEvent::CommSplit {
                    parent: parent_id,
                    color: *color,
                    key: *key,
                    result: result_id,
                }
            }
            MpiCall::CommDup { parent, result } => {
                let parent_id = self.comm_id(*parent);
                let c = result.expect("dup result available at post");
                CommEvent::CommDup { parent: parent_id, result: self.bind_comm(c) }
            }
            MpiCall::CommFree { comm } => {
                assert!(
                    *comm != CommId::WORLD,
                    "MPI_Comm_free(MPI_COMM_WORLD) is erroneous MPI and cannot be traced"
                );
                let id = self
                    .comms
                    .as_mut()
                    .and_then(|comms| comms.unbind(comm.0))
                    .expect("free of untraced communicator");
                CommEvent::CommFree { comm: id }
            }
        }
    }
}

/// Per-rank output of a streaming-ingest run: the local event table plus
/// the rank's id sequence in compressed form only — its grammar (built
/// online during the run, or at finish for a stream that fit the buffer)
/// and the stream's length. Sequitur is a pure function of its input, so
/// equal grammars are exactly equal streams: the lift's memo keys on the
/// grammar itself. Ranks whose streams fit the buffer and are equal share
/// one grammar.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamedRank {
    /// The rank's local table in local-id order: communication events by
    /// their id in [`StreamedTrace::events`], compute clusters inline.
    pub table: Vec<LocalEvent>,
    /// Grammar over **rank-local** table ids (the pipeline relabels it
    /// into global ids after the table merge).
    pub grammar: Arc<Grammar>,
    /// Number of events in the stream.
    pub seq_len: usize,
    pub raw_bytes: usize,
}

/// Whole-job output of a streaming-ingest run (pre-merge).
#[derive(Debug, Clone, PartialEq)]
pub struct StreamedTrace {
    pub nranks: usize,
    /// The job's distinct communication events, each once, numbered in
    /// first-introduction order: rank order, then local-id order. The
    /// numbering depends on no schedule, so it is the same at any width.
    pub events: Vec<CommEvent>,
    pub ranks: Vec<StreamedRank>,
}

impl StreamedTrace {
    pub fn raw_bytes(&self) -> usize {
        self.ranks.iter().map(|r| r.raw_bytes).sum()
    }

    pub fn total_events(&self) -> usize {
        self.ranks.iter().map(|r| r.seq_len).sum()
    }
}

/// The PMPI interposer. Share it with the `World` via `Arc`, run the
/// program, then call [`Recorder::finish_streamed`].
pub struct Recorder {
    per_rank: Vec<Slot>,
    /// Per recorder, never process-global: two syntheses in one process
    /// number their events apart.
    interner: Interner,
    config: TraceConfig,
}

impl Recorder {
    /// A recorder for `nranks` ranks: each rank buffers at most
    /// `config.stream_buf` ids. A stream that outgrows the buffer drains into an online
    /// Sequitur on the scheduler's pool threads as the simulated program
    /// runs; a stream that fits is built by [`Recorder::finish_streamed`],
    /// once per distinct stream.
    pub fn new_streaming(nranks: usize, config: TraceConfig) -> Recorder {
        Recorder {
            per_rank: (0..nranks).map(|_| Slot::default()).collect(),
            interner: Interner::default(),
            config,
        }
    }

    /// Extract the streamed trace, resetting the recorder in place. One
    /// pass in rank order: a rank that flushed drains its residual buffer
    /// into its builder and finalizes the grammar on the spot; ranks that
    /// never flushed hand over their buffered streams, which are then built
    /// together by [`build_rank_grammars`] — Sequitur once per distinct
    /// sequence, in first-seen order, fanned out over the pool, and one
    /// shared grammar per sequence. Sequitur is a pure function of its
    /// input and the dedupe compares whole sequences, so the grammars equal
    /// what a per-rank online build would produce.
    ///
    /// The same pass numbers the interned events by their first
    /// introduction (rank order, then local-id order), rewrites each
    /// rank's table to those numbers, and moves each event into
    /// [`StreamedTrace::events`] once. The obs stream and the whole trace
    /// are deterministic whatever order the scheduler completed the ranks
    /// in.
    pub fn finish_streamed(&self) -> StreamedTrace {
        let interned = mem::take(&mut *self.interner.lock().expect("interner poisoned"));
        let mut by_interning: Vec<Option<Arc<CommEvent>>> = vec![None; interned.len()];
        for (event, id) in interned {
            by_interning[id as usize] = Some(event);
        }
        // Interning id → job id, assigned at first introduction.
        let mut job_ids: Vec<Option<u32>> = vec![None; by_interning.len()];
        let mut events: Vec<Arc<CommEvent>> = Vec::with_capacity(by_interning.len());

        let mut flushes = 0u64;
        let mut peak = 0usize;
        let mut unflushed: Vec<usize> = Vec::new();
        let mut unflushed_seqs: Vec<Vec<u32>> = Vec::new();
        let mut ranks: Vec<StreamedRank> = Vec::with_capacity(self.per_rank.len());
        // Held by unflushed ranks until the batch build below.
        let placeholder = Arc::new(Grammar { rules: Vec::new() });
        for (rank, slot) in self.per_rank.iter().enumerate() {
            // A rank that never posted, or whose run deadlocked before it
            // finished, reads as idle.
            let taken = slot.lock().expect("rank state poisoned").take();
            let RankTrace { sink: mut s, comm_index, computes, raw_bytes, .. } =
                taken.map(|state| state.trace).unwrap_or_default();
            let mut table = local_table(comm_index, computes);
            for entry in &mut table {
                if let LocalEvent::Comm(id) = entry {
                    let interned = *id as usize;
                    *id = *job_ids[interned].get_or_insert_with(|| {
                        let shared = by_interning[interned].take();
                        events.push(shared.expect("an interned event is introduced once"));
                        events.len() as u32 - 1
                    });
                }
            }
            let (rank_flushes, rank_peak) = s.flushes_and_peak(self.config.stream_limit());
            flushes += rank_flushes;
            peak = peak.max(rank_peak);
            let seq_len = s.len();
            let grammar = if s.online.is_some() {
                s.flush();
                let online = s.online.expect("flushed sink holds a builder");
                Arc::new(online.builder.into_grammar())
            } else {
                unflushed.push(rank);
                unflushed_seqs.push(s.buf);
                Arc::clone(&placeholder)
            };
            ranks.push(StreamedRank { table, grammar, seq_len, raw_bytes });
        }
        // Every rank dropped its references above, so no event is copied.
        let events: Vec<CommEvent> = events.into_iter().map(Arc::unwrap_or_clone).collect();
        // Skipped when every rank flushed, so no empty memo counters show.
        if !unflushed.is_empty() {
            let built = build_rank_grammars(&unflushed_seqs, true);
            for (&rank, grammar) in unflushed.iter().zip(built) {
                ranks[rank].grammar = grammar;
            }
        }
        siesta_obs::counter("trace.stream.flushes").add(flushes);
        siesta_obs::gauge("trace.stream.peak_buffered").set(peak as i64);
        siesta_obs::counter("trace.intern.events").add(events.len() as u64);
        let trace = StreamedTrace { nranks: self.per_rank.len(), events, ranks };
        siesta_obs::debug!(
            "trace: streamed {} events ({} raw bytes) across {} ranks, \
             {} distinct communication events, {flushes} flushes, \
             peak {peak} buffered, {} streams built at finish",
            trace.total_events(),
            trace.raw_bytes(),
            trace.nranks,
            trace.events.len(),
            unflushed.len()
        );
        trace
    }
}

impl PmpiHook for Recorder {
    fn pre(&self, _ctx: &HookCtx, _call: &MpiCall) {
        // All recording happens at post time, when results (created
        // communicators) are known; counters cannot change inside MPI.
    }

    /// The shared path, for hooks that wrap the recorder: the rank's
    /// state stays in its slot, and each post takes the slot's lock.
    fn post(&self, ctx: &HookCtx, call: &MpiCall) {
        let mut slot = self.per_rank[ctx.rank].lock().expect("rank state poisoned");
        let state = slot.get_or_insert_with(Box::default);
        state.trace.record(ctx, call, &self.interner, &self.config);
    }

    fn overhead_ns(&self) -> f64 {
        TRACE_OVERHEAD_NS
    }

    /// Move the rank's state out of its slot and into the rank, which then
    /// records without a lock until it finishes.
    fn for_rank(self: Arc<Self>, rank: usize) -> Option<Box<dyn RankHook>> {
        let taken = self.per_rank[rank].lock().expect("rank state poisoned").take();
        let mut state: Box<RankState> = taken.unwrap_or_default();
        state.home = Some((self, rank));
        Some(state)
    }
}

#[cfg(test)]
impl StreamedTrace {
    /// The trace a recorder returns for ranks that saw `table` and
    /// streamed `seq`, each with `raw_bytes`: communication events are
    /// interned in first-introduction order, and each rank carries its
    /// Sequitur grammar and length.
    pub(crate) fn from_tables(
        ranks: Vec<(Vec<crate::EventRecord>, Vec<u32>)>,
        raw_bytes: usize,
    ) -> StreamedTrace {
        use crate::EventRecord;
        let mut events: Vec<CommEvent> = Vec::new();
        let mut index: FxHashMap<CommEvent, u32> = FxHashMap::default();
        let nranks = ranks.len();
        let ranks = ranks
            .into_iter()
            .map(|(records, seq)| {
                let table = records
                    .into_iter()
                    .map(|record| match record {
                        EventRecord::Comm(c) => {
                            let id = index.entry(c).or_insert_with_key(|c| {
                                events.push(c.clone());
                                events.len() as u32 - 1
                            });
                            LocalEvent::Comm(*id)
                        }
                        EventRecord::Compute(stats) => LocalEvent::Compute(stats),
                    })
                    .collect();
                StreamedRank {
                    table,
                    grammar: Arc::new(Sequitur::build(&seq)),
                    seq_len: seq.len(),
                    raw_bytes,
                }
            })
            .collect();
        StreamedTrace { nranks, events, ranks }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use siesta_perfmodel::{platform_a, Machine, MpiFlavor};
    use siesta_workloads::{ProblemSize, Program};

    fn machine() -> Machine {
        Machine::new(platform_a(), MpiFlavor::OpenMpi)
    }

    fn config(stream_buf: usize) -> TraceConfig {
        TraceConfig { stream_buf, ..TraceConfig::default() }
    }

    fn record_with(program: Program, nprocs: usize, size: ProblemSize, buf: usize) -> StreamedTrace {
        let rec = Arc::new(Recorder::new_streaming(nprocs, config(buf)));
        program.run_hooked(machine(), nprocs, size, rec.clone());
        rec.finish_streamed()
    }

    /// A recording whose buffer no stream fills: every rank's grammar is
    /// built at finish from its whole id sequence, the reference the
    /// bounded buffers must reproduce.
    fn record(program: Program, nprocs: usize) -> StreamedTrace {
        record_with(program, nprocs, ProblemSize::Tiny, STREAM_BUF_MAX)
    }

    fn record_streamed(program: Program, nprocs: usize, buf: usize) -> StreamedTrace {
        record_with(program, nprocs, ProblemSize::Tiny, buf)
    }

    fn seq(rank: &StreamedRank) -> Vec<u32> {
        rank.grammar.expand_main()
    }

    #[test]
    fn recording_is_deterministic() {
        let a = record(Program::Cg, 8);
        let b = record(Program::Cg, 8);
        for (x, y) in a.ranks.iter().zip(&b.ranks) {
            assert_eq!(seq(x), seq(y));
            assert_eq!(x.raw_bytes, y.raw_bytes);
        }
    }

    #[test]
    fn events_alternate_compute_and_comm() {
        let t = record(Program::Mg, 8);
        for r in &t.ranks {
            assert!(r.seq_len > 0);
            // The table contains both kinds.
            assert!(r.table.iter().any(|e| matches!(e, LocalEvent::Comm(_))));
            assert!(r.table.iter().any(|e| matches!(e, LocalEvent::Compute(_))));
        }
    }

    #[test]
    fn table_is_much_smaller_than_sequence() {
        // Iterative programs revisit the same events: compression potential.
        let t = record(Program::Sweep3d, 8);
        for r in &t.ranks {
            assert!(
                r.table.len() * 3 < r.seq_len,
                "table {} vs seq {}",
                r.table.len(),
                r.seq_len
            );
        }
    }

    #[test]
    fn symmetric_ring_produces_identical_comm_sequences() {
        // A pure ring exchange: with relative-rank encoding every rank's
        // normalized communication record stream is identical — the
        // property Section 2.2 relies on for cross-process merging.
        use siesta_mpisim::World;
        use siesta_perfmodel::KernelDesc;
        let rec = Arc::new(Recorder::new_streaming(6, config(STREAM_BUF_MAX)));
        World::new(machine(), 6).with_hook(rec.clone()).run(|mut rank| {
            Box::pin(async move {
                let comm = rank.comm_world();
                let p = rank.nranks();
                let right = (rank.rank() + 1) % p;
                let left = (rank.rank() + p - 1) % p;
                for _ in 0..10 {
                    rank.compute(&KernelDesc::stencil(5_000.0, 4.0, 65536.0));
                    let r = rank.irecv(&comm, left, 3, 2048);
                    let s = rank.isend(&comm, right, 3, 2048);
                    rank.waitall(&[r, s]).await;
                    rank.allreduce(&comm, 8).await;
                }
                rank
            })
        });
        let t = rec.finish_streamed();
        let decode = |rd: &StreamedRank| -> Vec<String> {
            seq(rd)
                .iter()
                .filter_map(|&id| match &rd.table[id as usize] {
                    LocalEvent::Comm(c) => Some(format!("{:?}", t.events[*c as usize])),
                    LocalEvent::Compute(_) => None,
                })
                .collect()
        };
        let first = decode(&t.ranks[0]);
        assert!(!first.is_empty());
        for r in &t.ranks[1..] {
            assert_eq!(decode(r), first);
        }
        // And with clustering, the *full* id sequences are identical too
        // (each rank clusters its noisy kernel readings into one event).
        for r in &t.ranks[1..] {
            assert_eq!(seq(r), seq(&t.ranks[0]));
        }
    }

    #[test]
    fn flash_comm_management_is_traced() {
        // Small size so the regrid interval (every 5 steps) is reached.
        let t = record_with(Program::Sedov, 6, ProblemSize::Small, STREAM_BUF_MAX);
        let has = |pred: &dyn Fn(&CommEvent) -> bool| t.events.iter().any(pred);
        assert!(has(&|c| matches!(c, CommEvent::CommDup { .. })));
        assert!(has(&|c| matches!(c, CommEvent::CommSplit { .. })));
        assert!(has(&|c| matches!(c, CommEvent::CommFree { .. })));
    }

    #[test]
    fn tracing_overhead_is_small() {
        let base = Program::Bt.run(machine(), 9, ProblemSize::Tiny);
        let rec = Arc::new(Recorder::new_streaming(9, TraceConfig::default()));
        let hooked = Program::Bt.run_hooked(machine(), 9, ProblemSize::Tiny, rec);
        let overhead = (hooked.elapsed_ns() - base.elapsed_ns()) / base.elapsed_ns();
        assert!(overhead > 0.0);
        assert!(overhead < 0.10, "overhead {overhead} too large");
    }

    #[test]
    fn raw_trace_size_ordering_matches_paper() {
        // IS ≪ the dense solvers, as in Table 3.
        let is = record(Program::Is, 8).raw_bytes();
        let sw = record(Program::Sweep3d, 8).raw_bytes();
        assert!(is * 3 < sw, "IS {is} not well below Sweep3d {sw}");
    }

    #[test]
    fn streamed_matches_materialized_per_rank() {
        // A bounded buffer must be an exact compressed image of one no
        // stream fills: same tables, same raw bytes, and a grammar that
        // expands to the very sequence the unbounded recording holds.
        for program in [Program::Cg, Program::Sweep3d, Program::Is] {
            let whole = record(program, 8);
            for buf in [16usize, 256, DEFAULT_STREAM_BUF] {
                let st = record_streamed(program, 8, buf);
                assert_eq!(st.raw_bytes(), whole.raw_bytes());
                assert_eq!(st.total_events(), whole.total_events());
                for (s, w) in st.ranks.iter().zip(&whole.ranks) {
                    let w_seq = seq(w);
                    assert_eq!(s.table, w.table);
                    assert_eq!(s.seq_len, w_seq.len());
                    assert_eq!(seq(s), w_seq, "{program:?} buf={buf}");
                    // And the grammar is the one Sequitur would build from
                    // the whole sequence (not merely expansion-equal).
                    assert_eq!(*s.grammar, Sequitur::build(&w_seq));
                }
            }
        }
    }

    /// Forwards `pre`, `post` and `overhead_ns` to the recorder, as hooks
    /// that wrap it do, so its ranks record through the shared path.
    struct Forward(Arc<Recorder>);

    impl PmpiHook for Forward {
        fn pre(&self, ctx: &HookCtx, call: &MpiCall) {
            self.0.pre(ctx, call);
        }

        fn post(&self, ctx: &HookCtx, call: &MpiCall) {
            self.0.post(ctx, call);
        }

        fn overhead_ns(&self) -> f64 {
            self.0.overhead_ns()
        }
    }

    #[test]
    fn both_entry_points_record_the_same_trace() {
        // Installed as the world's hook, the recorder lends each rank its
        // state; behind a wrapping hook, every post takes the rank's slot
        // lock. Both run one routine and charge one overhead, so the
        // traces and the virtual schedules are equal at any pool width.
        let cases = [
            (Program::Cg, 16, DEFAULT_STREAM_BUF),
            (Program::Sweep3d, 16, STREAM_BUF_MIN),
            (Program::Sweep3d, 16, DEFAULT_STREAM_BUF),
            (Program::Is, 8, DEFAULT_STREAM_BUF),
        ];
        for (program, nprocs, buf) in cases {
            for width in [1, 8] {
                let record = |wrap: bool| {
                    let rec = Arc::new(Recorder::new_streaming(nprocs, config(buf)));
                    let hook: Arc<dyn PmpiHook> =
                        if wrap { Arc::new(Forward(rec.clone())) } else { rec.clone() };
                    let stats = siesta_par::with_threads(width, || {
                        program.run_hooked(machine(), nprocs, ProblemSize::Tiny, hook)
                    });
                    (rec.finish_streamed(), stats.schedule_hash())
                };
                let (lent, lent_schedule) = record(false);
                let (shared, shared_schedule) = record(true);
                let case = format!("{program:?}/{nprocs} stream_buf {buf} width {width}");
                assert!(lent.total_events() > 0, "{case}");
                assert_eq!(lent, shared, "{case}");
                assert_eq!(lent_schedule, shared_schedule, "{case}");
            }
        }
    }

    #[test]
    fn ranks_that_never_finish_read_as_idle() {
        // Ranks 0 and 1 trade a message. Rank 3 sends rank 2 one message,
        // and rank 2 takes it, then waits for a second one that never
        // comes. The state rank 2 holds goes down with its future, so its
        // recorded receive is lost and it reads as a rank that never
        // posted; the shared path keeps it in the slot.
        use siesta_mpisim::World;
        let record = |hook: &dyn Fn(Arc<Recorder>) -> Arc<dyn PmpiHook>| {
            let rec = Arc::new(Recorder::new_streaming(4, TraceConfig::default()));
            let run = World::new(machine(), 4).with_hook(hook(rec.clone())).try_run(|mut rank| {
                Box::pin(async move {
                    let comm = rank.comm_world();
                    match rank.rank() {
                        0 => rank.send(&comm, 1, 0, 64).await,
                        1 => {
                            rank.recv(&comm, 0, 0, 64).await;
                        }
                        2 => {
                            rank.recv(&comm, 3, 0, 64).await;
                            rank.recv(&comm, 3, 1, 64).await;
                        }
                        _ => rank.send(&comm, 2, 0, 64).await,
                    }
                    rank
                })
            });
            let deadlock = run.expect_err("rank 2 waits forever");
            assert_eq!(deadlock.ranks.iter().map(|r| r.0).collect::<Vec<_>>(), [2]);
            rec.finish_streamed()
        };
        let lent = record(&|rec| rec);
        let lens: Vec<usize> = lent.ranks.iter().map(|r| r.seq_len).collect();
        assert_eq!(lens, [1, 1, 0, 1]);
        let idle = &lent.ranks[2];
        assert!(idle.table.is_empty() && idle.raw_bytes == 0 && seq(idle).is_empty());
        let shared = record(&|rec| Arc::new(Forward(rec)));
        assert_eq!(shared.ranks[2].seq_len, 1);
    }

    #[test]
    fn a_slot_is_a_lock_and_a_pointer() {
        // The rank's state lives in a box that the slot and, during a run,
        // the rank point at. Its first compute cluster is inline, so a
        // rank with one cluster makes one allocation for both.
        assert_eq!(mem::size_of::<Slot>(), 16);
        let state = mem::size_of::<RankState>();
        assert!(state <= 264, "RankState is {state} B");
    }

    #[test]
    fn streamed_finish_resets_state() {
        let rec = Arc::new(Recorder::new_streaming(4, TraceConfig::default()));
        Program::Is.run_hooked(machine(), 4, ProblemSize::Tiny, rec.clone());
        let first = rec.finish_streamed();
        assert!(first.total_events() > 0);
        // Still a streaming recorder after the reset, and empty.
        let empty = rec.finish_streamed();
        assert_eq!(empty.total_events(), 0);
        assert!(empty.events.is_empty());
        // A second run through the same recorder starts from a fresh
        // interner and fresh normalizers: the very same trace.
        Program::Is.run_hooked(machine(), 4, ProblemSize::Tiny, rec.clone());
        assert_eq!(rec.finish_streamed(), first);
    }

    #[test]
    fn events_are_distinct_and_numbered_by_first_introduction() {
        let t = record(Program::Sedov, 6);
        // Walking ranks in order, then each table in local-id order, the
        // first sight of each id is the next number: 0, 1, 2, ...
        let mut next = 0u32;
        for r in &t.ranks {
            let mut seen_here = std::collections::HashSet::new();
            for e in &r.table {
                if let LocalEvent::Comm(id) = *e {
                    assert!(seen_here.insert(id), "id {id} twice in one rank's table");
                    assert!(id <= next, "id {id} introduced before {next}");
                    if id == next {
                        next += 1;
                    }
                }
            }
        }
        assert_eq!(next as usize, t.events.len(), "every listed event is in some table");
        let distinct: std::collections::HashSet<&CommEvent> = t.events.iter().collect();
        assert_eq!(distinct.len(), t.events.len(), "an event is listed twice");
    }

    #[test]
    fn interned_events_are_exactly_the_merged_comm_terminals() {
        // 1,024 halo ranks see 5 communication events each, 9 distinct in
        // the whole job. The list holds each once, and each is in some
        // rank's table, so the merge finds exactly as many terminals.
        let rec = Arc::new(Recorder::new_streaming(1024, TraceConfig::default()));
        siesta_mpisim::World::new(machine(), 1024)
            .with_hook(rec.clone())
            .run(siesta_workloads::halo::halo2d_body(3, 4096));
        let t = rec.finish_streamed();
        let mut used = vec![false; t.events.len()];
        for r in &t.ranks {
            for e in &r.table {
                if let LocalEvent::Comm(id) = *e {
                    used[id as usize] = true;
                }
            }
        }
        assert!(used.iter().all(|&u| u), "an interned event is in no rank's table");
        let events = t.events.len();
        let merged = crate::merge_streamed(t);
        let comm_terminals = merged.table.iter().filter(|e| e.is_comm()).count();
        assert_eq!(events, comm_terminals);
        assert_eq!(events, 9);
    }

    #[test]
    fn ranks_of_one_unflushed_stream_share_one_grammar() {
        // A 4×4 periodic halo: every rank records one local-id stream,
        // short enough to stay buffered, and the grid's columns give it
        // three sets of events.
        let rec = Arc::new(Recorder::new_streaming(16, TraceConfig::default()));
        siesta_mpisim::World::new(machine(), 16)
            .with_hook(rec.clone())
            .run(siesta_workloads::halo::halo2d_body(3, 4096));
        let st = rec.finish_streamed();
        let shared = |a: &Arc<Grammar>, b: &Arc<Grammar>| Arc::ptr_eq(a, b);
        // Finish builds each stream once and hands every rank that
        // recorded it the same grammar.
        for a in &st.ranks {
            for b in &st.ranks {
                assert_eq!(shared(&a.grammar, &b.grammar), a.grammar == b.grammar);
            }
        }
        let streams = siesta_hash::first_seen(st.ranks.iter().map(|r| &r.grammar)).first.len();
        assert_eq!(streams, 1);
        // The lift relabels each (stream, remap) once and shares it too.
        let sg = crate::merge_streamed(st);
        for a in &sg.grammars {
            for b in &sg.grammars {
                assert_eq!(shared(a, b), a == b);
            }
        }
        assert_eq!(siesta_hash::first_seen(&sg.grammars).first.len(), 3);
    }

    fn ctx(comm_size: usize) -> HookCtx {
        HookCtx {
            rank: 0,
            clock_ns: 0.0,
            counters: CounterVec::default(),
            comm_rank: 0,
            comm_size,
            call_start_ns: 0.0,
            wait_ns: 0.0,
            call_seq: 0,
        }
    }

    #[test]
    fn world_is_pool_number_zero_and_derived_comms_follow() {
        let mut n = Normalizer::new();
        let (a, b, c) = (CommId(10), CommId(11), CommId(12));
        let mut post = |call: MpiCall| n.normalize(&ctx(4), &call);
        assert_eq!(post(MpiCall::Barrier { comm: CommId::WORLD }), CommEvent::Barrier { comm: 0 });
        assert_eq!(
            post(MpiCall::CommSplit { parent: CommId::WORLD, color: 1, key: 0, result: Some(a) }),
            CommEvent::CommSplit { parent: 0, color: 1, key: 0, result: Some(1) }
        );
        assert_eq!(
            post(MpiCall::CommDup { parent: a, result: Some(b) }),
            CommEvent::CommDup { parent: 1, result: 2 }
        );
        assert_eq!(post(MpiCall::CommFree { comm: a }), CommEvent::CommFree { comm: 1 });
        // The freed number is the smallest free one again; WORLD's 0 never is.
        assert_eq!(
            post(MpiCall::CommDup { parent: CommId::WORLD, result: Some(c) }),
            CommEvent::CommDup { parent: 0, result: 1 }
        );
        assert_eq!(post(MpiCall::Barrier { comm: b }), CommEvent::Barrier { comm: 2 });
    }

    #[test]
    fn events_take_their_class_and_name_from_the_call() {
        let world = CommId::WORLD;
        let a = CommId(10);
        let calls = [
            MpiCall::Send { comm: world, dest: 1, tag: 0, bytes: 8 },
            MpiCall::Recv { comm: world, src: 1, tag: 0, bytes: 8 },
            MpiCall::Isend { comm: world, dest: 1, tag: 0, bytes: 8, req: 5 },
            MpiCall::Irecv { comm: world, src: 1, tag: 0, bytes: 8, req: 6 },
            MpiCall::Wait { req: 5 },
            MpiCall::Waitall { reqs: vec![6] },
            MpiCall::Sendrecv {
                comm: world,
                dest: 1,
                send_tag: 0,
                send_bytes: 8,
                src: 3,
                recv_tag: 0,
                recv_bytes: 8,
            },
            MpiCall::Barrier { comm: world },
            MpiCall::Bcast { comm: world, root: 0, bytes: 8 },
            MpiCall::Reduce { comm: world, root: 0, bytes: 8 },
            MpiCall::Allreduce { comm: world, bytes: 8 },
            MpiCall::Allgather { comm: world, bytes: 8 },
            MpiCall::Alltoall { comm: world, bytes_per_peer: 8 },
            MpiCall::Alltoallv { comm: world, send_counts: vec![8; 4], recv_counts: vec![8; 4] },
            MpiCall::Gather { comm: world, root: 0, bytes: 8 },
            MpiCall::Scatter { comm: world, root: 0, bytes: 8 },
            MpiCall::Gatherv { comm: world, root: 0, counts: vec![8; 4] },
            MpiCall::Scatterv { comm: world, root: 0, counts: vec![8; 4] },
            MpiCall::Scan { comm: world, bytes: 8 },
            MpiCall::ReduceScatterBlock { comm: world, bytes_per_rank: 8 },
            MpiCall::CommSplit { parent: world, color: 0, key: 0, result: Some(a) },
            MpiCall::CommDup { parent: world, result: Some(CommId(11)) },
            MpiCall::CommFree { comm: a },
        ];
        let mut n = Normalizer::new();
        let mut seen = [false; siesta_mpisim::hook::NUM_CALL_CLASSES];
        for call in &calls {
            let event = n.normalize(&ctx(4), call);
            assert_eq!(event.class_index(), call.class_index(), "{call:?}");
            assert_eq!(event.func_name(), call.func_name(), "{call:?}");
            seen[call.class_index()] = true;
        }
        assert!(seen.iter().all(|&s| s), "one call per class");
    }

    #[test]
    #[should_panic(expected = "MPI_Comm_free(MPI_COMM_WORLD) is erroneous")]
    fn freeing_world_is_refused() {
        Normalizer::new().normalize(&ctx(4), &MpiCall::CommFree { comm: CommId::WORLD });
    }

    #[test]
    fn one_recorder_builds_flushed_and_unflushed_ranks_alike() {
        // A buffer between the shortest and longest rank stream: long
        // ranks flush into an online builder, short ones are still fully
        // buffered at finish and built there, deduped across ranks. Both
        // kinds must yield the batch grammar and length.
        let program = Program::Sweep3d;
        let whole = record(program, 8);
        let lens: Vec<usize> = whole.ranks.iter().map(|r| r.seq_len).collect();
        let (min, max) = (*lens.iter().min().unwrap(), *lens.iter().max().unwrap());
        assert!(min < max, "rank streams all {min} ids long; need two lengths");
        let buf = (min + max).div_ceil(2);
        assert!(lens.iter().any(|&l| l >= buf) && lens.iter().any(|&l| l < buf));
        let st = record_streamed(program, 8, buf);
        for (rank, (s, w)) in st.ranks.iter().zip(&whole.ranks).enumerate() {
            let w_seq = seq(w);
            assert_eq!(s.table, w.table, "rank {rank}");
            assert_eq!(*s.grammar, Sequitur::build(&w_seq), "rank {rank} buf={buf}");
            assert_eq!(s.seq_len, w_seq.len(), "rank {rank}");
        }
    }

    #[test]
    fn resolve_stream_buf_precedence_and_validation() {
        // Explicit beats default; out-of-range explicit rejected.
        assert_eq!(resolve_stream_buf(None), Ok(DEFAULT_STREAM_BUF));
        assert_eq!(resolve_stream_buf(Some(1024)), Ok(1024));
        assert!(resolve_stream_buf(Some(STREAM_BUF_MIN - 1)).is_err());
        assert!(resolve_stream_buf(Some(STREAM_BUF_MAX + 1)).is_err());
        assert_eq!(resolve_stream_buf(Some(STREAM_BUF_MIN)), Ok(STREAM_BUF_MIN));
        assert_eq!(resolve_stream_buf(Some(STREAM_BUF_MAX)), Ok(STREAM_BUF_MAX));
    }
}
