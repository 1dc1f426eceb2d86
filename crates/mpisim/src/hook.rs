//! PMPI-style interposition.
//!
//! Real Siesta builds on mpiP, which builds on PMPI: every `MPI_Xxx` call is
//! wrapped so profiling code runs before and after `PMPI_Xxx`. Here the
//! runtime plays the MPI library and a [`PmpiHook`] plays the interposer:
//! the runtime invokes `pre`/`post` around every application-level MPI call
//! with a complete call record. The hook also declares its per-call cost,
//! which the runtime charges to the rank's virtual clock — that is how the
//! Table 3 "overhead" column is reproduced.
//!
//! A PMPI library is linked into every MPI process, so each process keeps
//! its own copy of the tool's state. A hook gets the same shape through
//! [`PmpiHook::for_rank`]: the world asks it once per rank for a
//! [`RankHook`] the rank owns for the run and calls without a lock.

use std::sync::Arc;

use siesta_perfmodel::CounterVec;

use crate::comm::CommId;
use crate::message::Tag;

/// Number of [`MpiCall`] variants; the range of [`MpiCall::class_index`].
pub const NUM_CALL_CLASSES: usize = 23;

/// A fully-parameterized MPI call, as a PMPI wrapper would observe it.
///
/// Ranks in the records are **communicator-local** (what the application
/// passes), matching what a real tracer sees. Request ids are the runtime's
/// raw slot numbers — allocation-history-dependent, like real handles.
#[derive(Debug, Clone, PartialEq)]
pub enum MpiCall {
    Send { comm: CommId, dest: usize, tag: Tag, bytes: usize },
    Recv { comm: CommId, src: usize, tag: Tag, bytes: usize },
    Isend { comm: CommId, dest: usize, tag: Tag, bytes: usize, req: usize },
    Irecv { comm: CommId, src: usize, tag: Tag, bytes: usize, req: usize },
    Wait { req: usize },
    Waitall { reqs: Vec<usize> },
    Sendrecv {
        comm: CommId,
        dest: usize,
        send_tag: Tag,
        send_bytes: usize,
        src: usize,
        recv_tag: Tag,
        recv_bytes: usize,
    },
    Barrier { comm: CommId },
    Bcast { comm: CommId, root: usize, bytes: usize },
    Reduce { comm: CommId, root: usize, bytes: usize },
    Allreduce { comm: CommId, bytes: usize },
    Allgather { comm: CommId, bytes: usize },
    Alltoall { comm: CommId, bytes_per_peer: usize },
    Alltoallv { comm: CommId, send_counts: Vec<usize>, recv_counts: Vec<usize> },
    Gather { comm: CommId, root: usize, bytes: usize },
    Scatter { comm: CommId, root: usize, bytes: usize },
    Gatherv { comm: CommId, root: usize, counts: Vec<usize> },
    Scatterv { comm: CommId, root: usize, counts: Vec<usize> },
    Scan { comm: CommId, bytes: usize },
    ReduceScatterBlock { comm: CommId, bytes_per_rank: usize },
    /// `result` is `None` in the `pre` hook and the created communicator
    /// (or `None` for `MPI_UNDEFINED` colors) in the `post` hook.
    CommSplit { parent: CommId, color: i64, key: i64, result: Option<CommId> },
    CommDup { parent: CommId, result: Option<CommId> },
    CommFree { comm: CommId },
}

impl MpiCall {
    /// MPI function name, as it would appear in a textual trace.
    pub fn func_name(&self) -> &'static str {
        Self::class_name(self.class_index())
    }

    /// Dense per-variant index in `0..NUM_CALL_CLASSES`, stable across
    /// releases (new variants append). Metric tables, the virtual-time
    /// profiler, and the critical-path extractor all key on it.
    pub fn class_index(&self) -> usize {
        match self {
            MpiCall::Send { .. } => 0,
            MpiCall::Recv { .. } => 1,
            MpiCall::Isend { .. } => 2,
            MpiCall::Irecv { .. } => 3,
            MpiCall::Wait { .. } => 4,
            MpiCall::Waitall { .. } => 5,
            MpiCall::Sendrecv { .. } => 6,
            MpiCall::Barrier { .. } => 7,
            MpiCall::Bcast { .. } => 8,
            MpiCall::Reduce { .. } => 9,
            MpiCall::Allreduce { .. } => 10,
            MpiCall::Allgather { .. } => 11,
            MpiCall::Alltoall { .. } => 12,
            MpiCall::Alltoallv { .. } => 13,
            MpiCall::Gather { .. } => 14,
            MpiCall::Scatter { .. } => 15,
            MpiCall::Gatherv { .. } => 16,
            MpiCall::Scatterv { .. } => 17,
            MpiCall::Scan { .. } => 18,
            MpiCall::ReduceScatterBlock { .. } => 19,
            MpiCall::CommSplit { .. } => 20,
            MpiCall::CommDup { .. } => 21,
            MpiCall::CommFree { .. } => 22,
        }
    }

    /// MPI function name for a class index produced by
    /// [`MpiCall::class_index`].
    pub fn class_name(idx: usize) -> &'static str {
        const NAMES: [&str; NUM_CALL_CLASSES] = [
            "MPI_Send",
            "MPI_Recv",
            "MPI_Isend",
            "MPI_Irecv",
            "MPI_Wait",
            "MPI_Waitall",
            "MPI_Sendrecv",
            "MPI_Barrier",
            "MPI_Bcast",
            "MPI_Reduce",
            "MPI_Allreduce",
            "MPI_Allgather",
            "MPI_Alltoall",
            "MPI_Alltoallv",
            "MPI_Gather",
            "MPI_Scatter",
            "MPI_Gatherv",
            "MPI_Scatterv",
            "MPI_Scan",
            "MPI_Reduce_scatter_block",
            "MPI_Comm_split",
            "MPI_Comm_dup",
            "MPI_Comm_free",
        ];
        NAMES.get(idx).copied().unwrap_or("MPI_?")
    }

    /// Application payload bytes moved by this single call (sends count
    /// outgoing volume; collectives count this rank's contribution).
    pub fn payload_bytes(&self) -> usize {
        match self {
            MpiCall::Send { bytes, .. }
            | MpiCall::Isend { bytes, .. }
            | MpiCall::Recv { bytes, .. }
            | MpiCall::Irecv { bytes, .. }
            | MpiCall::Bcast { bytes, .. }
            | MpiCall::Reduce { bytes, .. }
            | MpiCall::Allreduce { bytes, .. }
            | MpiCall::Allgather { bytes, .. }
            | MpiCall::Gather { bytes, .. }
            | MpiCall::Scatter { bytes, .. } => *bytes,
            MpiCall::Sendrecv { send_bytes, recv_bytes, .. } => send_bytes + recv_bytes,
            MpiCall::Alltoall { bytes_per_peer, .. } => *bytes_per_peer,
            MpiCall::Alltoallv { send_counts, .. } => send_counts.iter().sum(),
            MpiCall::Gatherv { counts, .. } | MpiCall::Scatterv { counts, .. } => {
                counts.iter().sum()
            }
            MpiCall::Scan { bytes, .. } => *bytes,
            MpiCall::ReduceScatterBlock { bytes_per_rank, .. } => *bytes_per_rank,
            _ => 0,
        }
    }
}

/// Execution context handed to hooks alongside the call record.
#[derive(Debug, Clone, Copy)]
pub struct HookCtx {
    /// Global rank of the calling process.
    pub rank: usize,
    /// Virtual clock at the hook invocation, nanoseconds.
    pub clock_ns: f64,
    /// Cumulative *computation* counters of this rank (advanced only by
    /// `Rank::compute`, never by MPI-internal work — this is what a PAPI
    /// read between MPI calls observes).
    pub counters: CounterVec,
    /// This process's rank within the call's communicator (what a tracer
    /// gets from `MPI_Comm_rank` on the handle). Equals the global rank for
    /// calls without a communicator argument (`MPI_Wait`, ...).
    pub comm_rank: usize,
    /// Size of the call's communicator; world size for comm-less calls.
    pub comm_size: usize,
    /// Virtual clock at the matching `pre` hook of this call (equals
    /// `clock_ns` in the `pre` hook itself). Lets a `post`-only profiler
    /// reconstruct the call interval without per-call state of its own.
    pub call_start_ns: f64,
    /// Virtual nanoseconds this call has spent *blocked* so far: clock
    /// jumps to completion times produced by peers (message arrival,
    /// rendezvous ack, collective quorum, split rendezvous). Always `0.0`
    /// in `pre`; in `post` it is the call's exact blocked-wait total, so
    /// `(clock_ns - call_start_ns) - wait_ns` is local transfer/overhead.
    pub wait_ns: f64,
    /// Zero-based index of this call in the rank's own hooked-call
    /// sequence (same value in `pre` and `post`). Gives recorders a
    /// per-rank program-order key without maintaining per-rank state of
    /// their own — the rank counts its calls anyway.
    pub call_seq: u32,
}

/// A PMPI interposer.
///
/// One hook serves every rank of a run, on whichever pool thread polls the
/// rank. A hook that keeps per-rank state should hand each rank its own
/// copy through [`PmpiHook::for_rank`], as a PMPI library linked into
/// each process would, rather than index shared state by rank behind a
/// lock. `pre` and `post` remain the path for hooks that answer `None`
/// there, and for hooks that wrap another hook and forward its calls.
pub trait PmpiHook: Send + Sync {
    /// Invoked before the MPI operation starts. The default does nothing:
    /// most hooks record at `post`, when the call's results are known.
    fn pre(&self, _ctx: &HookCtx, _call: &MpiCall) {}
    /// Invoked after the MPI operation completes (clock reflects completion).
    fn post(&self, ctx: &HookCtx, call: &MpiCall);
    /// Virtual nanoseconds of tracer work to charge per hooked call (split
    /// across pre+post). Models the instrumentation overhead of Table 3.
    /// The world reads it once per run, so it must not change during one.
    fn overhead_ns(&self) -> f64 {
        0.0
    }
    /// This hook's state for `rank`, owned by that rank for the run. The
    /// world asks once per rank before the run starts. A rank that gets
    /// `Some` calls [`RankHook::post`] at each of its calls, instead of
    /// `pre` and `post` here, and hands the state back through
    /// [`RankHook::finish`] when it completes. A rank of a run that
    /// deadlocks drops its state unfinished. The default, `None`, keeps
    /// every rank on `pre` and `post`.
    fn for_rank(self: Arc<Self>, rank: usize) -> Option<Box<dyn RankHook>> {
        let _ = rank;
        None
    }
}

/// One rank's share of a [`PmpiHook`], from [`PmpiHook::for_rank`]. Only
/// its rank calls it, so it takes `&mut self` and needs no lock. It gets
/// no `pre` call: a rank hook records at post, when the call's results
/// are known. The runtime still charges the hook's whole
/// [`PmpiHook::overhead_ns`], half before and half after the call.
pub trait RankHook: Send {
    /// Invoked after the MPI operation completes (clock reflects completion).
    fn post(&mut self, ctx: &HookCtx, call: &MpiCall);
    /// Invoked once, when the rank completes: hand the state back.
    fn finish(self: Box<Self>);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn func_names() {
        let c = MpiCall::Send { comm: CommId::WORLD, dest: 1, tag: 0, bytes: 8 };
        assert_eq!(c.func_name(), "MPI_Send");
        let b = MpiCall::Barrier { comm: CommId::WORLD };
        assert_eq!(b.func_name(), "MPI_Barrier");
        let r = MpiCall::ReduceScatterBlock { comm: CommId::WORLD, bytes_per_rank: 8 };
        assert_eq!(r.func_name(), "MPI_Reduce_scatter_block");
        assert_eq!(MpiCall::CommFree { comm: CommId::WORLD }.func_name(), "MPI_Comm_free");
    }

    #[test]
    fn payload_accounting() {
        assert_eq!(
            MpiCall::Alltoallv {
                comm: CommId::WORLD,
                send_counts: vec![1, 2, 3],
                recv_counts: vec![3, 2, 1],
            }
            .payload_bytes(),
            6
        );
        assert_eq!(
            MpiCall::Sendrecv {
                comm: CommId::WORLD,
                dest: 0,
                send_tag: 0,
                send_bytes: 10,
                src: 0,
                recv_tag: 0,
                recv_bytes: 20,
            }
            .payload_bytes(),
            30
        );
        assert_eq!(MpiCall::Wait { req: 0 }.payload_bytes(), 0);
    }
}
