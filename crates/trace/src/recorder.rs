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
//! Each rank's state sits behind its own mutex, touched only by that rank's
//! thread — interposition-style isolation. The interner's lock is the one
//! ranks share, and a rank takes it only at the first sight of an event.

use std::mem;
use std::sync::{Arc, Mutex};

use siesta_grammar::{build_rank_grammars, Grammar, Sequitur};
use siesta_hash::FxHashMap;
use siesta_mpisim::{CommId, HookCtx, MpiCall, PmpiHook};
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

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            cluster_threshold: 0.15,
            stream_buf: DEFAULT_STREAM_BUF,
        }
    }
}

/// Where a rank's id sequence goes: a bounded buffer feeding an online
/// Sequitur. The sink never holds more than `limit` ids outside the
/// grammar — a stream longer than the buffer exists only as its compressed
/// grammar, the residual buffer and a length. It keeps no content hash:
/// the grammar itself is the stream's identity downstream.
struct StreamSink {
    buf: Vec<u32>,
    limit: usize,
    /// Online builder, created at the first flush. A stream that never
    /// fills the buffer is built at `finish_streamed` instead, once per
    /// distinct sequence, so the ranks of an SPMD job mostly never hold
    /// one. Boxed so an idle sink carries a pointer, not a builder.
    builder: Option<Box<Sequitur>>,
    len: usize,
    flushes: u64,
    peak_buffered: usize,
}

impl StreamSink {
    fn new(limit: usize) -> StreamSink {
        StreamSink {
            // Grows on demand up to `limit`: preallocating the cap would
            // cost `4·limit` bytes on every rank of a 10⁴–10⁶-rank world
            // before a single event arrives.
            buf: Vec::new(),
            limit,
            builder: None,
            len: 0,
            flushes: 0,
            peak_buffered: 0,
        }
    }

    fn push(&mut self, id: u32) {
        self.buf.push(id);
        self.peak_buffered = self.peak_buffered.max(self.buf.len());
        if self.buf.len() >= self.limit {
            self.flush();
        }
    }

    /// Drain the buffer into the online builder, creating it on first use.
    fn flush(&mut self) {
        if self.buf.is_empty() {
            return;
        }
        let builder = self.builder.get_or_insert_with(|| Box::new(Sequitur::new()));
        for &id in &self.buf {
            builder.push(id);
        }
        self.len += self.buf.len();
        self.flushes += 1;
        self.buf.clear();
    }

    /// Take the whole stream of a sink that never flushed, counting it
    /// into the length.
    fn take_unflushed(&mut self) -> Vec<u32> {
        debug_assert!(self.builder.is_none() && self.len == 0);
        self.len = self.buf.len();
        mem::take(&mut self.buf)
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

struct RankTrace {
    sink: StreamSink,
    /// The communication events this rank has seen, each pointing at the
    /// job's one copy, → (local id, interning id). Only this rank's thread
    /// touches it, so a repeated event takes no lock other ranks share.
    comm_index: FxHashMap<Arc<CommEvent>, (u32, u32)>,
    /// (local id, statistics) per compute cluster, in opening order; the
    /// statistics' `repr` is the membership key. Scanned linearly —
    /// programs have few distinct computation behaviours.
    computes: Vec<(u32, ComputeStats)>,
    last_counters: CounterVec,
    normalizer: Normalizer,
    raw_bytes: usize,
}

impl RankTrace {
    /// An idle rank's state: it allocates nothing until the rank posts.
    fn new(stream_buf: usize) -> RankTrace {
        RankTrace {
            sink: StreamSink::new(stream_buf.max(1)),
            comm_index: FxHashMap::default(),
            computes: Vec::new(),
            last_counters: CounterVec::default(),
            normalizer: Normalizer::new(),
            raw_bytes: 0,
        }
    }

    /// Local ids count up from 0 over both kinds of entry.
    fn next_id(&self) -> u32 {
        (self.comm_index.len() + self.computes.len()) as u32
    }

    fn close_compute_interval(&mut self, counters: CounterVec, threshold: f64) {
        let delta = counters - self.last_counters;
        self.last_counters = counters;
        if delta.total() <= 0.0 {
            return;
        }
        let found = self
            .computes
            .iter_mut()
            .find(|(_, stats)| counters_close(&stats.repr, &delta, threshold));
        let id = match found {
            Some((id, stats)) => {
                stats.absorb(delta);
                *id
            }
            None => {
                let id = self.next_id();
                // Most ranks open exactly one cluster: room for one.
                if self.computes.is_empty() {
                    self.computes.reserve_exact(1);
                }
                self.computes.push((id, ComputeStats::new(delta)));
                id
            }
        };
        self.sink.push(id);
        self.raw_bytes += serialize::compute_record_bytes();
    }

    fn record_comm(&mut self, event: CommEvent, interner: &Interner) {
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
        self.sink.push(id);
    }
}

/// A rank's local table in local-id order, its communication entries
/// still holding interning ids. Consumes the rank's references to the
/// shared events.
fn local_table(
    comm_index: FxHashMap<Arc<CommEvent>, (u32, u32)>,
    computes: Vec<(u32, ComputeStats)>,
) -> Vec<LocalEvent> {
    // Every slot is overwritten: comm and compute ids partition 0..n.
    let mut table = vec![LocalEvent::Comm(0); comm_index.len() + computes.len()];
    for (_, (local, interned)) in comm_index {
        table[local as usize] = LocalEvent::Comm(interned);
    }
    for (local, stats) in computes {
        table[local as usize] = LocalEvent::Compute(stats);
    }
    table
}

/// Handle normalization state shared by any PMPI-style recorder: maps the
/// runtime's request and communicator handles to free-pool numbers and
/// rewrites call records into normalized [`CommEvent`]s. Public so baseline
/// tracers (e.g. the ScalaBench-like recorder) normalize identically.
pub struct Normalizer {
    reqs: HandleMap<usize>,
    comms: HandleMap<u64>,
}

impl Default for Normalizer {
    fn default() -> Self {
        Self::new()
    }
}

/// `MPI_COMM_WORLD`'s pool number on every rank.
const WORLD_POOL_ID: u32 = 0;

impl Normalizer {
    /// Allocates nothing: `MPI_COMM_WORLD` holds pool number 0 without a
    /// map entry, and is answered without a lookup.
    pub fn new() -> Normalizer {
        let mut comms = HandleMap::new();
        let world = comms.reserve();
        debug_assert_eq!(world, WORLD_POOL_ID);
        Normalizer { reqs: HandleMap::new(), comms }
    }

    fn comm_id(&self, comm: CommId) -> u32 {
        if comm == CommId::WORLD {
            return WORLD_POOL_ID;
        }
        self.comms
            .get(comm.0)
            .expect("communicator used before creation — split/dup not traced?")
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
                req: self.reqs.bind(*req),
            },
            MpiCall::Irecv { comm, src, tag, bytes, req } => CommEvent::Irecv {
                rel: rel_rank(me, *src, size),
                tag: *tag,
                bytes: *bytes as u64,
                comm: self.comm_id(*comm),
                req: self.reqs.bind(*req),
            },
            MpiCall::Wait { req } => {
                let id = self.reqs.unbind(*req).expect("wait on untraced request");
                CommEvent::Wait { req: id }
            }
            MpiCall::Waitall { reqs } => {
                let ids = reqs
                    .iter()
                    .map(|r| self.reqs.unbind(*r).expect("waitall on untraced request"))
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
                let result_id = result.map(|c| self.comms.bind(c.0));
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
                CommEvent::CommDup { parent: parent_id, result: self.comms.bind(c.0) }
            }
            MpiCall::CommFree { comm } => {
                assert!(
                    *comm != CommId::WORLD,
                    "MPI_Comm_free(MPI_COMM_WORLD) is erroneous MPI and cannot be traced"
                );
                let id = self.comms.unbind(comm.0).expect("free of untraced communicator");
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
/// grammar itself.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamedRank {
    /// The rank's local table in local-id order: communication events by
    /// their id in [`StreamedTrace::events`], compute clusters inline.
    pub table: Vec<LocalEvent>,
    /// Grammar over **rank-local** table ids (the pipeline relabels it
    /// into global ids after the table merge).
    pub grammar: Grammar,
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
    per_rank: Vec<Mutex<RankTrace>>,
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
            per_rank: (0..nranks).map(|_| Mutex::new(RankTrace::new(config.stream_buf))).collect(),
            interner: Interner::default(),
            config,
        }
    }

    /// Extract the streamed trace, resetting the recorder in place. One
    /// pass in rank order: a rank that flushed drains its residual buffer
    /// into its builder and finalizes the grammar on the spot; ranks that
    /// never flushed hand over their buffered streams, which are then built
    /// together by [`build_rank_grammars`] — Sequitur once per distinct
    /// sequence, in first-seen order, fanned out over the pool. Sequitur is
    /// a pure function of its input and the dedupe compares whole
    /// sequences, so the grammars equal what a per-rank online build would
    /// produce.
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
        for (rank, m) in self.per_rank.iter().enumerate() {
            // An idle `RankTrace` allocates nothing, so the reset is free.
            let idle = RankTrace::new(self.config.stream_buf);
            let RankTrace { sink: mut s, comm_index, computes, raw_bytes, .. } =
                mem::replace(&mut *m.lock().expect("rank state poisoned"), idle);
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
            peak = peak.max(s.peak_buffered);
            let grammar = if s.builder.is_some() {
                s.flush();
                s.builder.take().expect("flushed sink holds a builder").into_grammar()
            } else {
                unflushed.push(rank);
                unflushed_seqs.push(s.take_unflushed());
                // Placeholder until the batch build below.
                Grammar { rules: Vec::new() }
            };
            flushes += s.flushes;
            ranks.push(StreamedRank { table, grammar, seq_len: s.len, raw_bytes });
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

    fn post(&self, ctx: &HookCtx, call: &MpiCall) {
        let mut tr = self.per_rank[ctx.rank].lock().expect("rank state poisoned");
        tr.close_compute_interval(ctx.counters, self.config.cluster_threshold);
        let event = tr.normalizer.normalize(ctx, call);
        tr.record_comm(event, &self.interner);
    }

    fn overhead_ns(&self) -> f64 {
        TRACE_OVERHEAD_NS
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
                    grammar: Sequitur::build(&seq),
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
                    assert_eq!(s.grammar, Sequitur::build(&w_seq));
                }
            }
        }
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
            assert_eq!(s.grammar, Sequitur::build(&w_seq), "rank {rank} buf={buf}");
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
