//! The virtual-time profiler: a [`PmpiHook`] that records every
//! application-level MPI call as a per-rank timeline interval.
//!
//! Each completed call becomes one fixed-size [`SimEvent`] — `(rank,
//! call class, vtime start, vtime end, peer/comm, bytes, blocked wait)`.
//! Recording happens only in the `post` hook: the runtime threads the
//! call's start time and exact blocked-wait total through
//! [`HookCtx::call_start_ns`] / [`HookCtx::wait_ns`].
//!
//! # Storage: per-thread logs, not rank tracks
//!
//! The obvious layout — one buffer per rank — is cache-hostile at scale:
//! the scheduler interleaves ranks, so consecutive events land in
//! different rank buffers and every push is a cold miss plus a possibly
//! migrating mutex line (measured ~150 ns/event at 4 096 ranks, blowing
//! the <5% overhead budget). Instead the default (unbounded) mode appends
//! to a **per-thread log** — the same single-writer chunked-buffer
//! discipline as the span flight recorder (`siesta_obs::span`): each
//! worker registers its own chunk list on first push and then writes
//! lock-free, publishing each event with a release store of the chunk's
//! committed length. The write head stays in that core's L1, so a push
//! is two plain stores; allocation happens once per `CHUNK` events and
//! sealed chunks never move. Program order per rank is preserved by
//! [`HookCtx::call_seq`] — the rank's own hooked-call ordinal, counted in
//! state that is already hot in the polling worker — and
//! [`SimProfiler::snapshot`] merges the logs back into per-rank tracks by
//! `(rank, seq)`. (Per-worker `Mutex<Vec>` shards work too, but the
//! uncontended lock and the extra cold line per push are measurable at
//! 64k ranks.)
//!
//! With `SIESTA_SIM_EVT_CAP` set, recording switches to bounded per-rank
//! rings ([`siesta_obs::timeline::Timeline`]) that keep the newest `cap`
//! events per rank with exact drop counts — the flight-recorder
//! discipline; bounded memory is worth the slower scattered writes.
//!
//! The profiler charges **zero** virtual overhead — it observes the
//! simulation without perturbing the clocks, so schedules (and
//! `schedule_hash`) are identical with profiling on or off.
//!
//! Peers are recorded as *global* ranks where the PMPI view permits:
//! communicator-local ranks equal global ranks only on `MPI_COMM_WORLD`,
//! so non-world point-to-point events carry [`NO_PEER`] (they still
//! appear on the timeline; the critical-path extractor counts them as
//! unmatchable instead of guessing).
//!
//! A profiler belongs to one run: a [`crate::World`] asked to observe
//! it (`Observe::sim_profile`, the CLI's `--sim-profile`) stacks a fresh
//! one under its hook and returns it in
//! [`crate::RunStats::sim_profile`]; the caller snapshots it after
//! reading its own timings, so the per-rank merge stays out of the timed
//! run. Only the parked-chunk pool (`CHUNK_POOL`) is process-wide, and
//! it is a cache.

use std::cell::{Cell, UnsafeCell};
use std::fmt;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use siesta_obs::timeline::{Timeline, TrackSnapshot};
use siesta_obs::vtime::{self, ClassRow, VtSpan, VtTraceMeta};

use crate::comm::CommId;
use crate::hook::{HookCtx, MpiCall, PmpiHook, NUM_CALL_CLASSES};

/// "No peer recorded": non-world communicator, or the call has no peer.
pub const NO_PEER: u32 = u32::MAX;

/// Request-id slots inlined per event; `MPI_Waitall` over more requests
/// records [`REQS_OVERFLOW`] instead (counted, never mismatched). Four
/// covers the common stencil waitalls (one request per face) while
/// keeping the event small — recording streams ~100 MB at 64k ranks, so
/// every inline slot is measurable wall time.
pub const MAX_INLINE_REQS: usize = 4;

/// `nreqs` sentinel: the call completed more requests than fit inline.
pub const REQS_OVERFLOW: u8 = u8::MAX;

/// One recorded MPI call interval. Fixed-size and `Copy` so ring-capped
/// tracks stay flat arrays.
#[derive(Debug, Clone, Copy)]
pub struct SimEvent {
    /// [`MpiCall::class_index`] of the call.
    pub class: u16,
    /// Inlined request count in `reqs`, or [`REQS_OVERFLOW`].
    pub nreqs: u8,
    /// Primary tag: send tag for sends, recv tag for receives.
    pub tag: i32,
    /// `MPI_Sendrecv` only: the receive-side tag.
    pub tag2: i32,
    /// Global peer rank — destination for sends, source for receives —
    /// when attributable (world communicator), else [`NO_PEER`].
    pub peer: u32,
    /// `MPI_Sendrecv` only: the receive-side global source.
    pub peer2: u32,
    /// Raw communicator id of the call (0 for comm-less calls).
    pub comm: u64,
    /// Payload bytes ([`MpiCall::payload_bytes`]).
    pub bytes: u64,
    /// Request ids: the allocated id for `Isend`/`Irecv`, the completed
    /// ids for `Wait`/`Waitall`.
    pub reqs: [u32; MAX_INLINE_REQS],
    /// Virtual time entering the call (pre hook).
    pub t0: f64,
    /// Virtual time leaving the call (post hook).
    pub t1: f64,
    /// Blocked-wait portion of `t1 - t0` (see [`HookCtx::wait_ns`]).
    /// Stored `f32` (±2⁻²⁴ relative — sub-percent on any printable wait)
    /// to keep the event at exactly one cache line; the interval bounds
    /// stay `f64` because tests and the critical path compare them
    /// against exact virtual clocks.
    pub wait_ns: f32,
}

impl SimEvent {
    /// Interval length in virtual nanoseconds.
    pub fn dur_ns(&self) -> f64 {
        self.t1 - self.t0
    }
}

/// One `(rank, call_seq, event)` record in a thread log.
type Rec = (u32, u32, SimEvent);

/// Events per storage chunk (~36 KB): big enough to amortize the
/// allocation, small enough that freed chunks recycle through the
/// allocator's ordinary bins across runs. Chunks — unlike one growing
/// `Vec` — never relocate, so appending 100+ MB at 64k ranks costs no
/// doubling memcpys and no fresh page faults on re-runs.
const CHUNK: usize = 512;

/// A fixed-capacity event chunk with a published length. Single writer
/// (the log's owning thread) appends with `recs[len].write(...)` followed
/// by a release store of `len + 1`; any reader that acquire-loads `len`
/// may then read the first `len` records — the standard single-producer
/// publish, same as the span flight recorder's committed counter.
struct LogChunk {
    len: AtomicUsize,
    recs: UnsafeCell<[MaybeUninit<Rec>; CHUNK]>,
}

// SAFETY: `recs` is written only by the owning thread (guaranteed by the
// thread-local slot protocol in `Sharded::push`), and readers only touch
// the prefix published through the release/acquire `len`.
unsafe impl Sync for LogChunk {}

impl LogChunk {
    fn boxed() -> Box<LogChunk> {
        // Only `len` needs initializing: `recs` slots are `MaybeUninit`
        // until published. Avoids materializing 36 KB on the stack.
        let mut chunk = Box::<LogChunk>::new_uninit();
        unsafe {
            std::ptr::addr_of_mut!((*chunk.as_mut_ptr()).len).write(AtomicUsize::new(0));
            chunk.assume_init()
        }
    }
}

/// Chunks parked by dropped profilers, recycled by later ones. At scale
/// the dominant recording cost is not the stores but faulting fresh pages
/// for the event stream (a 64k-rank halo run writes ~190 MB of chunks);
/// a process that simulates more than one world — rep loops, sweeps, the
/// overhead bench itself — would pay that fault storm per run. Parked
/// chunks keep their pages resident, so only the first run is cold.
static CHUNK_POOL: Mutex<Vec<Box<LogChunk>>> = Mutex::new(Vec::new());

/// Upper bound on parked chunks (~300 MB): enough to cover a 64k-rank
/// run's whole stream, small enough that a long-lived host process isn't
/// hoarding arbitrary memory after a huge one-off simulation.
const POOL_CAP: usize = 8192;

/// A chunk from the pool if one is parked, else freshly allocated. The
/// recycled chunk's `len` reset is safe to be relaxed: the caller is the
/// chunk's sole writer, and readers only discover the chunk through the
/// log mutex, which orders the reset before any of their loads.
fn pool_get() -> Box<LogChunk> {
    match CHUNK_POOL.lock().unwrap().pop() {
        Some(chunk) => {
            chunk.len.store(0, Ordering::Relaxed);
            chunk
        }
        None => LogChunk::boxed(),
    }
}

/// Park `chunks` (newest first) until the pool hits [`POOL_CAP`]; the
/// rest free normally.
fn pool_put(chunks: &mut Vec<Box<LogChunk>>) {
    let mut pool = CHUNK_POOL.lock().unwrap();
    while pool.len() < POOL_CAP {
        match chunks.pop() {
            Some(chunk) => pool.push(chunk),
            None => break,
        }
    }
}

/// One thread's append log: sealed chunks plus the write head, all
/// behind a registration mutex the writer takes only once per [`CHUNK`]
/// events (and readers take to enumerate chunks).
#[derive(Default)]
struct ThreadLog {
    chunks: Mutex<Vec<Box<LogChunk>>>,
}

/// Writer-side cache of where the calling thread is appending: which
/// profiler generation the pointers belong to, plus this thread's log
/// and its current head chunk. The head's fill level lives in the chunk
/// itself (`LogChunk::len` — reading back one's own store is L1-hot), so
/// the fast path never writes the TLS cell. One slot per thread: a
/// thread interleaving pushes to two *live* profilers would re-register
/// on every switch — the simulator never does that (one world at a time
/// per thread), and it would only cost memory, never correctness.
#[derive(Clone, Copy)]
struct TlsSlot {
    gen: u64,
    log: *const ThreadLog,
    head: *const LogChunk,
}

thread_local! {
    static SLOT: Cell<TlsSlot> = const {
        Cell::new(TlsSlot { gen: 0, log: std::ptr::null(), head: std::ptr::null() })
    };
}

/// Generation ids for [`TlsSlot`] validity: every profiler instance gets
/// a fresh one, so a stale slot can never alias a new profiler's chunks.
static GEN: AtomicU64 = AtomicU64::new(1);

// The boxes are load-bearing, not redundant heap indirection: [`TlsSlot`]
// caches raw pointers to logs, which must not move when the registry
// vector grows.
#[allow(clippy::vec_box)]
enum Store {
    /// Default (unbounded): lock-free per-thread logs, merged into rank
    /// tracks at snapshot time by the rank's call ordinal. See module docs.
    Sharded { nranks: usize, gen: u64, logs: Mutex<Vec<Box<ThreadLog>>> },
    /// `SIESTA_SIM_EVT_CAP` ring mode: bounded per-rank rings with exact
    /// drop counts.
    Ring(Timeline<SimEvent>),
}

/// The recording hook. A [`crate::World`] observing its run builds one;
/// [`SimProfiler::new`] builds a free-standing one.
pub struct SimProfiler {
    store: Store,
}

impl SimProfiler {
    /// A free-standing profiler for `nranks` tracks keeping at most
    /// `cap_per_track` events each (`0` = unbounded). Not registered
    /// anywhere: read it back with [`SimProfiler::snapshot`].
    pub fn new(nranks: usize, cap_per_track: usize) -> Arc<SimProfiler> {
        let store = if cap_per_track == 0 {
            Store::Sharded {
                nranks,
                gen: GEN.fetch_add(1, Ordering::Relaxed),
                logs: Mutex::new(Vec::new()),
            }
        } else {
            Store::Ring(Timeline::new(nranks, cap_per_track))
        };
        Arc::new(SimProfiler { store })
    }

    /// The profiler an observed world stacks for `nranks` tracks.
    /// Per-rank capacity comes from `SIESTA_SIM_EVT_CAP` (0/unset =
    /// unbounded; at scale, ring mode keeps the newest events per rank
    /// with exact drop counts).
    pub(crate) fn from_env(nranks: usize) -> Arc<SimProfiler> {
        let cap = std::env::var("SIESTA_SIM_EVT_CAP")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(0usize);
        Self::new(nranks, cap)
    }

    fn push(&self, rank: usize, seq: u32, ev: SimEvent) {
        match &self.store {
            Store::Sharded { nranks, gen, logs } => {
                // Out-of-range ranks are ignored (never panic in the
                // simulator's hot path).
                if rank >= *nranks {
                    return;
                }
                let mut slot = SLOT.get();
                // SAFETY (both blocks): `slot.gen == *gen` proves
                // `slot.head` points into this live profiler's chunk
                // list (generations are globally unique and the boxes
                // are stable and retained until the profiler drops), and
                // this thread is the chunk's sole writer — the slot
                // protocol hands each head chunk to exactly one thread,
                // so the relaxed `len` load reads this thread's own last
                // store. The write goes through a raw element pointer
                // (never a reference to the whole array), so it cannot
                // overlap `snapshot`'s reads of already-published
                // elements; the release store then publishes the record
                // for acquire-side readers.
                let mut len = if slot.gen == *gen {
                    unsafe { (*slot.head).len.load(Ordering::Relaxed) }
                } else {
                    CHUNK
                };
                if len == CHUNK {
                    // Slow path (first push from this thread, or head
                    // full): register / seal under the log mutex.
                    slot = self.new_head(slot, *gen, logs);
                    len = 0;
                }
                unsafe {
                    let chunk = &*slot.head;
                    let base: *mut MaybeUninit<Rec> = chunk.recs.get().cast();
                    (*base.add(len)).write((rank as u32, seq, ev));
                    chunk.len.store(len + 1, Ordering::Release);
                }
            }
            Store::Ring(timeline) => timeline.push(rank, ev),
        }
    }

    /// Slow path of the sharded push: give the calling thread a fresh
    /// head chunk — registering its log on the first call — and return
    /// the updated slot (already stored back to the TLS cell).
    #[cold]
    #[allow(clippy::vec_box)] // see `Store::Sharded`
    fn new_head(&self, slot: TlsSlot, gen: u64, logs: &Mutex<Vec<Box<ThreadLog>>>) -> TlsSlot {
        let log: *const ThreadLog = if slot.gen == gen {
            // Same profiler, head just filled up: keep appending chunks
            // to this thread's existing log.
            slot.log
        } else {
            let mut reg = logs.lock().unwrap();
            reg.push(Box::new(ThreadLog::default()));
            &**reg.last().expect("just pushed")
        };
        // SAFETY: `log` came from this profiler's registry (either just
        // pushed above, or via a slot whose generation matches), whose
        // boxes are stable and outlive every push (`&self` keeps the
        // profiler alive).
        let mut chunks = unsafe { &(*log).chunks }.lock().unwrap();
        chunks.push(pool_get());
        let head: *const LogChunk = &**chunks.last().expect("just pushed");
        drop(chunks);
        let fresh = TlsSlot { gen, log, head };
        SLOT.set(fresh);
        fresh
    }

    /// Copy the recorded timelines out (tracks in rank order, events in
    /// program order).
    pub fn snapshot(&self) -> SimProfileSnapshot {
        match &self.store {
            Store::Sharded { nranks, logs, .. } => {
                let mut per_rank: Vec<Vec<(u32, SimEvent)>> = vec![Vec::new(); *nranks];
                for log in logs.lock().unwrap().iter() {
                    for chunk in log.chunks.lock().unwrap().iter() {
                        let n = chunk.len.load(Ordering::Acquire);
                        let base: *const MaybeUninit<Rec> = chunk.recs.get().cast();
                        for i in 0..n {
                            // SAFETY: the acquire load of `len` pairs
                            // with the writer's release store, so the
                            // first `n` records are fully initialized;
                            // reads go through per-element pointers that
                            // never overlap the writer's in-flight slot.
                            let (rank, seq, ev) = unsafe { (*base.add(i)).assume_init() };
                            per_rank[rank as usize].push((seq, ev));
                        }
                    }
                }
                let tracks = per_rank
                    .into_iter()
                    .map(|mut recs| {
                        recs.sort_unstable_by_key(|&(seq, _)| seq);
                        TrackSnapshot {
                            events: recs.into_iter().map(|(_, ev)| ev).collect(),
                            dropped: 0,
                        }
                    })
                    .collect();
                SimProfileSnapshot { nranks: *nranks, tracks }
            }
            Store::Ring(timeline) => SimProfileSnapshot {
                nranks: timeline.ntracks(),
                tracks: timeline.snapshot(),
            },
        }
    }
}

impl Drop for SimProfiler {
    /// Park this profiler's chunks for reuse (see `CHUNK_POOL`). Stale
    /// TLS slots pointing at parked chunks are harmless: their generation
    /// can never match a future profiler's, so they are never followed.
    fn drop(&mut self) {
        if let Store::Sharded { logs, .. } = &self.store {
            for log in logs.lock().unwrap().iter() {
                pool_put(&mut log.chunks.lock().unwrap());
            }
        }
    }
}

/// Opaque: `RunStats` prints its collectors, never their addresses.
impl fmt::Debug for SimProfiler {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimProfiler").finish_non_exhaustive()
    }
}

impl PmpiHook for SimProfiler {
    fn pre(&self, _ctx: &HookCtx, _call: &MpiCall) {}

    fn post(&self, ctx: &HookCtx, call: &MpiCall) {
        let mut ev = SimEvent {
            class: call.class_index() as u16,
            nreqs: 0,
            tag: -1,
            tag2: -1,
            peer: NO_PEER,
            peer2: NO_PEER,
            comm: 0,
            bytes: call.payload_bytes() as u64,
            reqs: [0; MAX_INLINE_REQS],
            t0: ctx.call_start_ns,
            t1: ctx.clock_ns,
            wait_ns: ctx.wait_ns as f32,
        };
        // Local == global rank only on the world communicator; elsewhere
        // the PMPI view cannot attribute a global peer.
        let world_peer = |comm: &CommId, local: usize| {
            if *comm == CommId::WORLD { local as u32 } else { NO_PEER }
        };
        match call {
            MpiCall::Send { comm, dest, tag, .. } => {
                ev.comm = comm.0;
                ev.tag = *tag;
                ev.peer = world_peer(comm, *dest);
            }
            MpiCall::Recv { comm, src, tag, .. } => {
                ev.comm = comm.0;
                ev.tag = *tag;
                ev.peer = world_peer(comm, *src);
            }
            MpiCall::Isend { comm, dest, tag, req, .. } => {
                ev.comm = comm.0;
                ev.tag = *tag;
                ev.peer = world_peer(comm, *dest);
                ev.reqs[0] = *req as u32;
                ev.nreqs = 1;
            }
            MpiCall::Irecv { comm, src, tag, req, .. } => {
                ev.comm = comm.0;
                ev.tag = *tag;
                ev.peer = world_peer(comm, *src);
                ev.reqs[0] = *req as u32;
                ev.nreqs = 1;
            }
            MpiCall::Wait { req } => {
                ev.reqs[0] = *req as u32;
                ev.nreqs = 1;
            }
            MpiCall::Waitall { reqs } => {
                if reqs.len() <= MAX_INLINE_REQS {
                    for (slot, r) in ev.reqs.iter_mut().zip(reqs) {
                        *slot = *r as u32;
                    }
                    ev.nreqs = reqs.len() as u8;
                } else {
                    ev.nreqs = REQS_OVERFLOW;
                }
            }
            MpiCall::Sendrecv { comm, dest, send_tag, src, recv_tag, .. } => {
                ev.comm = comm.0;
                ev.tag = *send_tag;
                ev.tag2 = *recv_tag;
                ev.peer = world_peer(comm, *dest);
                ev.peer2 = world_peer(comm, *src);
            }
            MpiCall::CommSplit { parent, .. } | MpiCall::CommDup { parent, .. } => {
                ev.comm = parent.0;
            }
            MpiCall::CommFree { comm }
            | MpiCall::Barrier { comm }
            | MpiCall::Bcast { comm, .. }
            | MpiCall::Reduce { comm, .. }
            | MpiCall::Allreduce { comm, .. }
            | MpiCall::Allgather { comm, .. }
            | MpiCall::Alltoall { comm, .. }
            | MpiCall::Alltoallv { comm, .. }
            | MpiCall::Gather { comm, .. }
            | MpiCall::Scatter { comm, .. }
            | MpiCall::Gatherv { comm, .. }
            | MpiCall::Scatterv { comm, .. }
            | MpiCall::Scan { comm, .. }
            | MpiCall::ReduceScatterBlock { comm, .. } => {
                ev.comm = comm.0;
            }
        }
        self.push(ctx.rank, ctx.call_seq, ev);
    }
}

/// Per-rank timelines of one profiled run, in program order.
#[derive(Debug, Clone)]
pub struct SimProfileSnapshot {
    pub nranks: usize,
    /// One track per rank: events oldest-first plus the exact ring-drop
    /// count (0 unless `SIESTA_SIM_EVT_CAP` bounded the recording).
    pub tracks: Vec<TrackSnapshot<SimEvent>>,
}

impl SimProfileSnapshot {
    /// Events retained across all ranks.
    pub fn events_total(&self) -> usize {
        self.tracks.iter().map(|t| t.events.len()).sum()
    }

    /// Events overwritten by ring-capped recording, across all ranks.
    pub fn events_dropped(&self) -> u64 {
        self.tracks.iter().map(|t| t.dropped).sum()
    }

    /// Export as a Chrome trace in virtual time: one track per rank,
    /// strided to at most `max_tracks` tracks (0 = no cap) so huge worlds
    /// stay loadable. Deterministic: virtual timestamps are a pure
    /// function of the program and tracks export in rank order.
    pub fn chrome_trace_json(&self, max_tracks: usize) -> String {
        let stride = vtime::export_stride(self.nranks, max_tracks);
        let mut spans = Vec::new();
        let mut skipped = 0u64;
        for (rank, track) in self.tracks.iter().enumerate() {
            if rank % stride != 0 {
                skipped += track.events.len() as u64;
                continue;
            }
            for ev in &track.events {
                spans.push(VtSpan {
                    track: rank as u32,
                    name: MpiCall::class_name(ev.class as usize),
                    ts_ns: ev.t0,
                    dur_ns: ev.dur_ns(),
                    wait_ns: ev.wait_ns as f64,
                    bytes: ev.bytes,
                });
            }
        }
        let meta = VtTraceMeta {
            tracks_total: self.nranks,
            tracks_exported: self.nranks.div_ceil(stride),
            events_dropped: self.events_dropped(),
            events_skipped: skipped,
        };
        vtime::chrome_trace_json(&spans, &meta)
    }

    /// Aggregate the per-call-class wait/transfer rows (classes with at
    /// least one call, in class-index order — deterministic).
    pub fn class_breakdown(&self) -> Vec<ClassRow> {
        let mut count = [0u64; NUM_CALL_CLASSES];
        let mut total = [0.0f64; NUM_CALL_CLASSES];
        let mut wait = [0.0f64; NUM_CALL_CLASSES];
        let mut bytes = [0u64; NUM_CALL_CLASSES];
        for track in &self.tracks {
            for ev in &track.events {
                let c = (ev.class as usize).min(NUM_CALL_CLASSES - 1);
                count[c] += 1;
                total[c] += ev.dur_ns();
                wait[c] += ev.wait_ns as f64;
                bytes[c] += ev.bytes;
            }
        }
        (0..NUM_CALL_CLASSES)
            .filter(|&c| count[c] > 0)
            .map(|c| ClassRow {
                name: MpiCall::class_name(c),
                count: count[c],
                total_ns: total[c],
                wait_ns: wait[c],
                bytes: bytes[c],
            })
            .collect()
    }

    /// Render the wait/transfer breakdown table, with a drop-accounting
    /// trailer when ring mode lost events.
    pub fn render_breakdown(&self) -> String {
        let mut out = vtime::render_class_table(&self.class_breakdown());
        let dropped = self.events_dropped();
        if dropped > 0 {
            out.push_str(&format!(
                "(ring-capped: {dropped} events dropped; raise SIESTA_SIM_EVT_CAP for full coverage)\n"
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use siesta_perfmodel::CounterVec;

    fn ctx(rank: usize, t0: f64, t1: f64, wait: f64) -> HookCtx {
        HookCtx {
            rank,
            clock_ns: t1,
            counters: CounterVec::ZERO,
            comm_rank: rank,
            comm_size: 2,
            call_start_ns: t0,
            wait_ns: wait,
            // Tests advance t0 per rank, so it doubles as the call ordinal.
            call_seq: t0 as u32,
        }
    }

    #[test]
    fn records_intervals_with_peer_and_wait() {
        let p = SimProfiler::new(2, 0);
        let send = MpiCall::Send { comm: CommId::WORLD, dest: 1, tag: 7, bytes: 64 };
        p.post(&ctx(0, 10.0, 30.0, 0.0), &send);
        let recv = MpiCall::Recv { comm: CommId::WORLD, src: 0, tag: 7, bytes: 64 };
        p.post(&ctx(1, 5.0, 40.0, 25.0), &recv);
        // Non-world peers are not attributable.
        let sub = MpiCall::Send { comm: CommId(9), dest: 0, tag: 1, bytes: 8 };
        p.post(&ctx(1, 41.0, 42.0, 0.0), &sub);

        let snap = p.snapshot();
        assert_eq!(snap.nranks, 2);
        let s = &snap.tracks[0].events[0];
        assert_eq!((s.class, s.peer, s.tag, s.bytes), (0, 1, 7, 64));
        assert_eq!((s.t0, s.t1, s.wait_ns), (10.0, 30.0, 0.0));
        let r = &snap.tracks[1].events[0];
        assert_eq!((r.class, r.peer, r.wait_ns), (1, 0, 25.0));
        assert_eq!(snap.tracks[1].events[1].peer, NO_PEER);
        assert_eq!(format!("{p:?}"), "SimProfiler { .. }");
    }

    #[test]
    fn waitall_inlines_small_and_flags_overflow() {
        let p = SimProfiler::new(1, 0);
        p.post(&ctx(0, 0.0, 1.0, 0.0), &MpiCall::Waitall { reqs: vec![3, 1, 2] });
        p.post(&ctx(0, 1.0, 2.0, 0.0), &MpiCall::Waitall { reqs: (0..12).collect() });
        let snap = p.snapshot();
        let small = &snap.tracks[0].events[0];
        assert_eq!(small.nreqs, 3);
        assert_eq!(&small.reqs[..3], &[3, 1, 2]);
        assert_eq!(snap.tracks[0].events[1].nreqs, REQS_OVERFLOW);
    }

    #[test]
    fn breakdown_and_trace_are_deterministic() {
        let p = SimProfiler::new(4, 0);
        for r in 0..4 {
            let call = MpiCall::Allreduce { comm: CommId::WORLD, bytes: 8 };
            p.post(&ctx(r, r as f64, 10.0, 10.0 - r as f64 - 1.0), &call);
        }
        let snap = p.snapshot();
        let rows = snap.class_breakdown();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].name, "MPI_Allreduce");
        assert_eq!(rows[0].count, 4);
        let a = snap.chrome_trace_json(2);
        assert_eq!(a, snap.chrome_trace_json(2));
        // Stride 2 keeps ranks 0 and 2, skipping 2 tracks' events.
        assert!(a.contains("\"tracks_exported\":2"));
        assert!(a.contains("\"events_skipped\":2"));
    }
}
