//! The collectors of an observed run: an [`ObsHook`] that feeds the
//! `siesta-obs` metrics registry from the PMPI stream, and the
//! [`Collectors`] that hold it beside the run's [`CommMatrix`] and
//! [`SimProfiler`]. Only `World::try_run` builds them. A rank calls them
//! at each hooked call's post, after the caller's hook, so observing a
//! run leaves the hook's path alone.

use std::sync::Arc;

use siesta_obs::metrics::{counter, histogram, Counter, Histogram};

use crate::comm_matrix::CommMatrix;
use crate::hook::{HookCtx, MpiCall, NUM_CALL_CLASSES};
use crate::profiler::SimProfiler;

/// What an observed run records at each hooked call's post. Every
/// collector charges zero virtual overhead, so virtual time never moves.
pub(crate) struct Collectors {
    pub obs: ObsHook,
    pub comm_matrix: Option<Arc<CommMatrix>>,
    pub sim_profile: Option<Arc<SimProfiler>>,
}

impl Collectors {
    /// Record one completed call. `outstanding` is the rank's live
    /// request count after the call.
    pub(crate) fn post(&self, ctx: &HookCtx, call: &MpiCall, outstanding: usize) {
        self.obs.post(call, outstanding);
        if let Some(matrix) = &self.comm_matrix {
            matrix.record(ctx, call);
        }
        if let Some(profiler) = &self.sim_profile {
            profiler.record(ctx, call);
        }
    }
}

/// Metric names follow `mpi.calls.<MPI function>` (see DESIGN.md), one
/// per [`MpiCall`] variant, indexed by [`MpiCall::class_index`]. The hook
/// resolves all of them once at construction: the per-call hot path must
/// not take the metrics-registry lock (this hook runs on every MPI call
/// of every rank thread, and is what the <5% `--profile` overhead budget
/// is spent on).
const CALL_COUNTER_NAMES: [&str; NUM_CALL_CLASSES] = [
    "mpi.calls.MPI_Send",
    "mpi.calls.MPI_Recv",
    "mpi.calls.MPI_Isend",
    "mpi.calls.MPI_Irecv",
    "mpi.calls.MPI_Wait",
    "mpi.calls.MPI_Waitall",
    "mpi.calls.MPI_Sendrecv",
    "mpi.calls.MPI_Barrier",
    "mpi.calls.MPI_Bcast",
    "mpi.calls.MPI_Reduce",
    "mpi.calls.MPI_Allreduce",
    "mpi.calls.MPI_Allgather",
    "mpi.calls.MPI_Alltoall",
    "mpi.calls.MPI_Alltoallv",
    "mpi.calls.MPI_Gather",
    "mpi.calls.MPI_Scatter",
    "mpi.calls.MPI_Gatherv",
    "mpi.calls.MPI_Scatterv",
    "mpi.calls.MPI_Scan",
    "mpi.calls.MPI_Reduce_scatter_block",
    "mpi.calls.MPI_Comm_split",
    "mpi.calls.MPI_Comm_dup",
    "mpi.calls.MPI_Comm_free",
];

/// Records per-call-type counts, a message-volume histogram, and a
/// queue-depth histogram (outstanding nonblocking requests per rank,
/// sampled at each MPI call). Charges zero virtual overhead: it observes
/// the simulation without perturbing the clocks the paper's Table 3
/// overhead column is computed from.
pub(crate) struct ObsHook {
    /// Pre-resolved `mpi.calls.*` counters, indexed by
    /// [`MpiCall::class_index`].
    call_counters: [&'static Counter; NUM_CALL_CLASSES],
    /// Pre-resolved histograms (same reason: no registry lock per call).
    message_bytes: &'static Histogram,
    queue_depth: &'static Histogram,
}

impl ObsHook {
    pub(crate) fn new() -> ObsHook {
        ObsHook {
            call_counters: CALL_COUNTER_NAMES.map(counter),
            message_bytes: histogram("mpi.message_bytes"),
            queue_depth: histogram("mpi.queue_depth"),
        }
    }

    /// Count a completed call and its volume, and sample the queue depth
    /// the call found: `outstanding`, the rank's request count after the
    /// call, less the call's own change to it.
    fn post(&self, call: &MpiCall, outstanding: usize) {
        self.call_counters[call.class_index()].inc();
        let bytes = call.payload_bytes();
        if bytes > 0 {
            self.message_bytes.record(bytes as u64);
        }
        let depth = match call {
            MpiCall::Isend { .. } | MpiCall::Irecv { .. } => outstanding - 1,
            MpiCall::Wait { .. } => outstanding + 1,
            MpiCall::Waitall { reqs } => outstanding + reqs.len(),
            _ => outstanding,
        };
        self.queue_depth.record(depth as u64);
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Mutex;

    use siesta_perfmodel::{platform_a, Machine, MpiFlavor};

    use super::*;
    use crate::comm::CommId;
    use crate::world::{Observe, World};

    /// The `mpi.*` metrics are process-wide, so the tests that reset and
    /// read them take turns.
    static METRICS: Mutex<()> = Mutex::new(());

    #[test]
    fn counter_names_track_class_names() {
        for (i, name) in CALL_COUNTER_NAMES.iter().enumerate() {
            assert_eq!(*name, format!("mpi.calls.{}", MpiCall::class_name(i)));
        }
    }

    #[test]
    fn obs_hook_counts_calls_and_volume() {
        let _turn = METRICS.lock().expect("no test panics while holding the lock");
        siesta_obs::reset_metrics();
        let hook = ObsHook::new();
        // One rank's Send, Isend and Wait, each with the request count
        // the rank's table holds after the call.
        hook.post(&MpiCall::Send { comm: CommId::WORLD, dest: 1, tag: 7, bytes: 4096 }, 0);
        hook.post(&MpiCall::Isend { comm: CommId::WORLD, dest: 1, tag: 7, bytes: 64, req: 0 }, 1);
        hook.post(&MpiCall::Wait { req: 0 }, 0);

        assert_eq!(counter("mpi.calls.MPI_Send").get(), 1);
        assert_eq!(counter("mpi.calls.MPI_Isend").get(), 1);
        assert_eq!(counter("mpi.calls.MPI_Wait").get(), 1);
        let vol = histogram("mpi.message_bytes").summary();
        assert_eq!(vol.count, 2);
        assert_eq!(vol.max, 4096);
        // Queue depth sampled three times: 0 before Send, 0 before Isend,
        // 1 before Wait.
        let depth = histogram("mpi.queue_depth").summary();
        assert_eq!(depth.count, 3);
        assert_eq!(depth.max, 1);
        siesta_obs::reset_metrics();
    }

    #[test]
    fn queue_depth_drops_when_test_completes_a_request() {
        // Rank 0 completes an irecv through `test`, which is not hooked,
        // and then enters a barrier: the barrier finds no request left.
        let _turn = METRICS.lock().expect("no test panics while holding the lock");
        siesta_obs::reset_metrics();
        World::new(Machine::new(platform_a(), MpiFlavor::OpenMpi), 2)
            .observe(Observe { comm_matrix: true, sim_profile: false })
            .run(|mut rank| {
                Box::pin(async move {
                    let comm = rank.comm_world();
                    if rank.rank() == 0 {
                        let req = rank.irecv(&comm, 1, 0, 64);
                        while rank.test(req).await.is_none() {}
                    } else {
                        rank.send(&comm, 0, 0, 64).await;
                    }
                    rank.barrier(&comm).await;
                    rank
                })
            });
        let depth = histogram("mpi.queue_depth").summary();
        // Irecv, Send and two barriers; every one found an empty table.
        assert_eq!(depth.count, 4);
        assert_eq!(depth.max, 0);
        siesta_obs::reset_metrics();
    }
}
