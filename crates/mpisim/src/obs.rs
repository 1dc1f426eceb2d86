//! Observability interposers: an [`ObsHook`] that feeds the `siesta-obs`
//! metrics registry from the PMPI stream, and a [`FanoutHook`] that lets it
//! stack underneath the trace recorder (real PMPI tools chain the same way).
//! Only `World::try_run` builds them: an observed run stacks the caller's
//! hook, then an `ObsHook`, then the collectors the run asked for.

use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;

use siesta_obs::metrics::{counter, histogram, Counter, Histogram};

use crate::hook::{HookCtx, MpiCall, PmpiHook, NUM_CALL_CLASSES};

/// Broadcasts every hook event to each inner hook, in order. Per-call
/// overhead charged to the virtual clock is the sum of the inner overheads.
pub(crate) struct FanoutHook {
    hooks: Vec<Arc<dyn PmpiHook>>,
}

impl FanoutHook {
    pub(crate) fn new(hooks: Vec<Arc<dyn PmpiHook>>) -> FanoutHook {
        FanoutHook { hooks }
    }
}

impl PmpiHook for FanoutHook {
    fn pre(&self, ctx: &HookCtx, call: &MpiCall) {
        for h in &self.hooks {
            h.pre(ctx, call);
        }
    }

    fn post(&self, ctx: &HookCtx, call: &MpiCall) {
        for h in &self.hooks {
            h.post(ctx, call);
        }
    }

    fn overhead_ns(&self) -> f64 {
        self.hooks.iter().map(|h| h.overhead_ns()).sum()
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
    /// Outstanding Isend/Irecv requests per rank.
    outstanding: Vec<AtomicI64>,
    /// Pre-resolved `mpi.calls.*` counters, indexed by
    /// [`MpiCall::class_index`].
    call_counters: [&'static Counter; NUM_CALL_CLASSES],
    /// Pre-resolved histograms (same reason: no registry lock per call).
    message_bytes: &'static Histogram,
    queue_depth: &'static Histogram,
}

impl ObsHook {
    pub(crate) fn new(nranks: usize) -> ObsHook {
        ObsHook {
            outstanding: (0..nranks).map(|_| AtomicI64::new(0)).collect(),
            call_counters: CALL_COUNTER_NAMES.map(counter),
            message_bytes: histogram("mpi.message_bytes"),
            queue_depth: histogram("mpi.queue_depth"),
        }
    }
}

impl PmpiHook for ObsHook {
    fn pre(&self, ctx: &HookCtx, call: &MpiCall) {
        self.call_counters[call.class_index()].inc();
        let bytes = call.payload_bytes();
        if bytes > 0 {
            self.message_bytes.record(bytes as u64);
        }
        if let Some(q) = self.outstanding.get(ctx.rank) {
            self.queue_depth.record(q.load(Ordering::Relaxed).max(0) as u64);
        }
    }

    fn post(&self, ctx: &HookCtx, call: &MpiCall) {
        let Some(q) = self.outstanding.get(ctx.rank) else {
            return;
        };
        match call {
            MpiCall::Isend { .. } | MpiCall::Irecv { .. } => {
                q.fetch_add(1, Ordering::Relaxed);
            }
            MpiCall::Wait { .. } => {
                q.fetch_sub(1, Ordering::Relaxed);
            }
            MpiCall::Waitall { reqs } => {
                q.fetch_sub(reqs.len() as i64, Ordering::Relaxed);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::CommId;
    use siesta_perfmodel::CounterVec;

    fn ctx(rank: usize) -> HookCtx {
        HookCtx {
            rank,
            clock_ns: 0.0,
            counters: CounterVec::ZERO,
            comm_rank: rank,
            comm_size: 2,
            call_start_ns: 0.0,
            wait_ns: 0.0,
            call_seq: 0,
        }
    }

    #[test]
    fn counter_names_track_class_names() {
        for (i, name) in CALL_COUNTER_NAMES.iter().enumerate() {
            assert_eq!(*name, format!("mpi.calls.{}", MpiCall::class_name(i)));
        }
    }

    #[test]
    fn obs_hook_counts_calls_and_volume() {
        siesta_obs::reset_metrics();
        let hook = ObsHook::new(2);
        let send = MpiCall::Send { comm: CommId::WORLD, dest: 1, tag: 7, bytes: 4096 };
        hook.pre(&ctx(0), &send);
        hook.post(&ctx(0), &send);
        let isend = MpiCall::Isend { comm: CommId::WORLD, dest: 1, tag: 7, bytes: 64, req: 0 };
        hook.pre(&ctx(0), &isend);
        hook.post(&ctx(0), &isend);
        let wait = MpiCall::Wait { req: 0 };
        hook.pre(&ctx(0), &wait);
        hook.post(&ctx(0), &wait);

        assert_eq!(counter("mpi.calls.MPI_Send").get(), 1);
        assert_eq!(counter("mpi.calls.MPI_Isend").get(), 1);
        assert_eq!(counter("mpi.calls.MPI_Wait").get(), 1);
        let vol = histogram("mpi.message_bytes").summary();
        assert_eq!(vol.count, 2);
        assert_eq!(vol.max, 4096);
        // Queue depth sampled three times: 0 before Send, 0 before Isend,
        // 1 before Wait; back to 0 after Wait.
        let depth = histogram("mpi.queue_depth").summary();
        assert_eq!(depth.count, 3);
        assert_eq!(depth.max, 1);
        assert_eq!(hook.outstanding[0].load(Ordering::Relaxed), 0);
        siesta_obs::reset_metrics();
    }

    #[test]
    fn fanout_sums_overhead_and_forwards() {
        struct Fixed(f64);
        impl PmpiHook for Fixed {
            fn pre(&self, _: &HookCtx, _: &MpiCall) {}
            fn post(&self, _: &HookCtx, _: &MpiCall) {}
            fn overhead_ns(&self) -> f64 {
                self.0
            }
        }
        let fan = FanoutHook::new(vec![Arc::new(Fixed(100.0)), Arc::new(Fixed(20.0))]);
        assert_eq!(fan.overhead_ns(), 120.0);
    }
}
