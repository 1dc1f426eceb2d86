//! Normalized trace events (paper Section 2.2–2.3).
//!
//! Raw PMPI call records contain three kinds of run-dependent values that
//! defeat compression: absolute partner ranks (different on every process),
//! request handles (allocation-history-dependent), and communicator handles
//! (random at runtime). Normalization rewrites them:
//!
//! * partner ranks become **relative ranks** — `(peer − me) mod comm_size` —
//!   so "send to my east neighbor" is the same terminal on every rank;
//! * requests and communicators become **pool numbers** allocated from a
//!   free list starting at zero, so the same logical handle sequence gets
//!   the same numbers on every rank.
//!
//! Computation events are counter-vector deltas, clustered by a quantized
//! log-scale signature so noisy readings of the same kernel share one
//! terminal id across ranks.

use siesta_mpisim::MpiCall;
use siesta_perfmodel::CounterVec;

/// Relative rank encoding.
pub fn rel_rank(me: usize, peer: usize, comm_size: usize) -> u32 {
    ((peer + comm_size - me) % comm_size) as u32
}

/// Inverse of [`rel_rank`].
pub fn abs_rank(me: usize, rel: u32, comm_size: usize) -> usize {
    (me + rel as usize) % comm_size
}

/// A normalized communication event — one terminal of the trace grammar.
///
/// All partner ranks are relative; `req`/`comm` are pool numbers. Fully
/// `Eq + Hash` so identical events across iterations and ranks collapse to
/// one table entry.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum CommEvent {
    Send { rel: u32, tag: i32, bytes: u64, comm: u32 },
    Recv { rel: u32, tag: i32, bytes: u64, comm: u32 },
    Isend { rel: u32, tag: i32, bytes: u64, comm: u32, req: u32 },
    Irecv { rel: u32, tag: i32, bytes: u64, comm: u32, req: u32 },
    Wait { req: u32 },
    Waitall { reqs: Vec<u32> },
    Sendrecv {
        dest_rel: u32,
        send_tag: i32,
        send_bytes: u64,
        src_rel: u32,
        recv_tag: i32,
        recv_bytes: u64,
        comm: u32,
    },
    Barrier { comm: u32 },
    Bcast { comm: u32, root: u32, bytes: u64 },
    Reduce { comm: u32, root: u32, bytes: u64 },
    Allreduce { comm: u32, bytes: u64 },
    Allgather { comm: u32, bytes: u64 },
    Alltoall { comm: u32, bytes_per_peer: u64 },
    Alltoallv { comm: u32, send_counts: Vec<u64>, recv_counts: Vec<u64> },
    Gather { comm: u32, root: u32, bytes: u64 },
    Scatter { comm: u32, root: u32, bytes: u64 },
    Gatherv { comm: u32, root: u32, counts: Vec<u64> },
    Scatterv { comm: u32, root: u32, counts: Vec<u64> },
    Scan { comm: u32, bytes: u64 },
    ReduceScatterBlock { comm: u32, bytes_per_rank: u64 },
    CommSplit { parent: u32, color: i64, key: i64, result: Option<u32> },
    CommDup { parent: u32, result: u32 },
    CommFree { comm: u32 },
}

impl CommEvent {
    /// MPI function name, read from [`MpiCall::class_name`]'s table.
    pub fn func_name(&self) -> &'static str {
        MpiCall::class_name(self.class_index())
    }

    /// Dense per-variant index: the [`MpiCall::class_index`] of the call
    /// this event normalizes.
    pub fn class_index(&self) -> usize {
        match self {
            CommEvent::Send { .. } => 0,
            CommEvent::Recv { .. } => 1,
            CommEvent::Isend { .. } => 2,
            CommEvent::Irecv { .. } => 3,
            CommEvent::Wait { .. } => 4,
            CommEvent::Waitall { .. } => 5,
            CommEvent::Sendrecv { .. } => 6,
            CommEvent::Barrier { .. } => 7,
            CommEvent::Bcast { .. } => 8,
            CommEvent::Reduce { .. } => 9,
            CommEvent::Allreduce { .. } => 10,
            CommEvent::Allgather { .. } => 11,
            CommEvent::Alltoall { .. } => 12,
            CommEvent::Alltoallv { .. } => 13,
            CommEvent::Gather { .. } => 14,
            CommEvent::Scatter { .. } => 15,
            CommEvent::Gatherv { .. } => 16,
            CommEvent::Scatterv { .. } => 17,
            CommEvent::Scan { .. } => 18,
            CommEvent::ReduceScatterBlock { .. } => 19,
            CommEvent::CommSplit { .. } => 20,
            CommEvent::CommDup { .. } => 21,
            CommEvent::CommFree { .. } => 22,
        }
    }

    /// Relative peer ranks, in field order: `rel`, or `dest_rel` then
    /// `src_rel`. Collective roots are communicator ranks, not peers.
    pub fn peers_mut(&mut self) -> impl Iterator<Item = &mut u32> {
        self.fields_mut().peers.into_iter().flatten()
    }

    /// Scalar byte sizes, in field order: `bytes`, `bytes_per_peer` or
    /// `bytes_per_rank`, or `send_bytes` then `recv_bytes`.
    pub fn sizes_mut(&mut self) -> impl Iterator<Item = &mut u64> {
        self.fields_mut().sizes.into_iter().flatten()
    }

    /// Per-rank count vectors: `send_counts` then `recv_counts`, or
    /// `counts`.
    pub fn counts_mut(&mut self) -> impl Iterator<Item = &mut Vec<u64>> {
        self.fields_mut().counts.into_iter().flatten()
    }

    /// Every byte volume: the scalar sizes, then each count vector's
    /// entries (no event has both).
    pub fn volumes_mut(&mut self) -> impl Iterator<Item = &mut u64> {
        let fields = self.fields_mut();
        fields.sizes.into_iter().flatten().chain(fields.counts.into_iter().flatten().flatten())
    }

    /// The one place that knows which fields of each variant are peers,
    /// sizes and count vectors; the walks above read it.
    fn fields_mut(&mut self) -> FieldsMut<'_> {
        let mut f = FieldsMut::default();
        match self {
            CommEvent::Send { rel, bytes, .. }
            | CommEvent::Recv { rel, bytes, .. }
            | CommEvent::Isend { rel, bytes, .. }
            | CommEvent::Irecv { rel, bytes, .. } => {
                f.peers[0] = Some(rel);
                f.sizes[0] = Some(bytes);
            }
            CommEvent::Sendrecv { dest_rel, send_bytes, src_rel, recv_bytes, .. } => {
                f.peers = [Some(dest_rel), Some(src_rel)];
                f.sizes = [Some(send_bytes), Some(recv_bytes)];
            }
            CommEvent::Bcast { bytes, .. }
            | CommEvent::Reduce { bytes, .. }
            | CommEvent::Allreduce { bytes, .. }
            | CommEvent::Allgather { bytes, .. }
            | CommEvent::Alltoall { bytes_per_peer: bytes, .. }
            | CommEvent::Gather { bytes, .. }
            | CommEvent::Scatter { bytes, .. }
            | CommEvent::Scan { bytes, .. }
            | CommEvent::ReduceScatterBlock { bytes_per_rank: bytes, .. } => {
                f.sizes[0] = Some(bytes)
            }
            CommEvent::Alltoallv { send_counts, recv_counts, .. } => {
                f.counts = [Some(send_counts), Some(recv_counts)]
            }
            CommEvent::Gatherv { counts, .. } | CommEvent::Scatterv { counts, .. } => {
                f.counts[0] = Some(counts)
            }
            CommEvent::Wait { .. }
            | CommEvent::Waitall { .. }
            | CommEvent::Barrier { .. }
            | CommEvent::CommSplit { .. }
            | CommEvent::CommDup { .. }
            | CommEvent::CommFree { .. } => {}
        }
        f
    }
}

/// An event's rewritable fields, borrowed by kind from one match.
#[derive(Default)]
struct FieldsMut<'a> {
    peers: [Option<&'a mut u32>; 2],
    sizes: [Option<&'a mut u64>; 2],
    counts: [Option<&'a mut Vec<u64>>; 2],
}

/// Aggregated measurements of one clustered computation event (one call of
/// the paper's virtual `MPI_Compute`).
#[derive(Debug, Clone, PartialEq)]
pub struct ComputeStats {
    /// The cluster representative: the first reading that opened the
    /// cluster. Membership tests compare against this, so a cluster cannot
    /// drift as it absorbs readings.
    pub repr: CounterVec,
    /// Sum of all counter readings that joined this cluster.
    pub sum: CounterVec,
    pub count: u64,
}

impl ComputeStats {
    pub fn new(first: CounterVec) -> ComputeStats {
        ComputeStats { repr: first, sum: first, count: 1 }
    }

    pub fn absorb(&mut self, reading: CounterVec) {
        self.sum += reading;
        self.count += 1;
    }

    pub fn absorb_stats(&mut self, other: &ComputeStats) {
        self.sum += other.sum;
        self.count += other.count;
    }

    /// The representative counter target replayed for this event.
    pub fn mean(&self) -> CounterVec {
        self.sum / self.count as f64
    }
}

/// One entry of a (local or global) terminal table.
#[derive(Debug, Clone, PartialEq)]
pub enum EventRecord {
    Comm(CommEvent),
    Compute(ComputeStats),
}

impl EventRecord {
    pub fn is_comm(&self) -> bool {
        matches!(self, EventRecord::Comm(_))
    }
}

/// One entry of a rank's local table, or of a partial table in the merge:
/// a communication event by its id in the job's list of distinct events
/// ([`crate::StreamedTrace::events`]), or a compute cluster's statistics.
/// Communication events are stored once per job, not once per rank.
#[derive(Debug, Clone, PartialEq)]
pub enum LocalEvent {
    Comm(u32),
    Compute(ComputeStats),
}

/// The clustering criterion (paper: "we set a threshold to cluster similar
/// computation events into one event"): two readings cluster when every
/// metric agrees within `threshold` relative difference. The symmetric
/// relative difference `|a−b| / max(a,b)` is used so the test does not
/// depend on which reading came first; metrics that are (near) zero on both
/// sides are ignored, while zero-vs-nonzero counts as maximally different.
pub fn counters_close(a: &CounterVec, b: &CounterVec, threshold: f64) -> bool {
    let aa = a.as_array();
    let bb = b.as_array();
    for i in 0..6 {
        let hi = aa[i].max(bb[i]);
        if hi < 1.0 {
            continue; // both essentially zero
        }
        if (aa[i] - bb[i]).abs() / hi > threshold {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rel_rank_round_trips() {
        for size in [2usize, 5, 16] {
            for me in 0..size {
                for peer in 0..size {
                    let rel = rel_rank(me, peer, size);
                    assert_eq!(abs_rank(me, rel, size), peer);
                }
            }
        }
    }

    #[test]
    fn neighbors_share_relative_encoding() {
        // Every rank sending to its +1 neighbor in a periodic ring of 8
        // produces the same relative rank.
        let rels: Vec<u32> = (0..8).map(|me| rel_rank(me, (me + 1) % 8, 8)).collect();
        assert!(rels.iter().all(|&r| r == 1));
    }

    #[test]
    fn counters_close_clusters_noisy_readings() {
        let base = CounterVec::new(1e6, 5e5, 3e5, 2e4, 1e5, 2e3);
        let noisy = base * 1.05; // 5% jitter
        assert!(counters_close(&base, &noisy, 0.15));
        assert!(counters_close(&noisy, &base, 0.15)); // symmetric
        // A 4x different reading must not cluster.
        assert!(!counters_close(&base, &(base * 4.0), 0.15));
    }

    #[test]
    fn counters_close_handles_zero_metrics() {
        let a = CounterVec::new(100.0, 50.0, 0.0, 0.0, 0.0, 0.0);
        let b = CounterVec::new(100.0, 50.0, 0.2, 0.0, 0.0, 0.0);
        assert!(counters_close(&a, &b, 0.15)); // sub-1 counts ignored
        // Zero vs significant is maximally different.
        let c = CounterVec::new(100.0, 50.0, 500.0, 0.0, 0.0, 0.0);
        assert!(!counters_close(&a, &c, 0.15));
    }

    #[test]
    fn counters_close_discriminates_single_metric_outliers() {
        // Identical everywhere except MSP: must not cluster (max-style
        // criterion, unlike a mean that would wash it out).
        let a = CounterVec::new(1e6, 5e5, 3e5, 2e4, 1e5, 1e3);
        let b = CounterVec::new(1e6, 5e5, 3e5, 2e4, 1e5, 5e3);
        assert!(!counters_close(&a, &b, 0.15));
    }

    #[test]
    fn compute_stats_mean() {
        let mut s = ComputeStats::new(CounterVec::new(10.0, 10.0, 10.0, 0.0, 0.0, 0.0));
        s.absorb(CounterVec::new(20.0, 20.0, 20.0, 0.0, 0.0, 0.0));
        assert_eq!(s.count, 2);
        assert_eq!(s.mean().ins, 15.0);
        // The representative stays at the first reading.
        assert_eq!(s.repr.ins, 10.0);
    }

    /// One event of each variant, every numeric field a distinct value,
    /// paired with what each walk must visit: peers, sizes, count vectors.
    #[allow(clippy::type_complexity)]
    fn every_variant() -> Vec<(CommEvent, Vec<u32>, Vec<u64>, Vec<Vec<u64>>)> {
        use CommEvent::*;
        vec![
            (Send { rel: 1, tag: 2, bytes: 3, comm: 4 }, vec![1], vec![3], vec![]),
            (Recv { rel: 1, tag: 2, bytes: 3, comm: 4 }, vec![1], vec![3], vec![]),
            (Isend { rel: 1, tag: 2, bytes: 3, comm: 4, req: 5 }, vec![1], vec![3], vec![]),
            (Irecv { rel: 1, tag: 2, bytes: 3, comm: 4, req: 5 }, vec![1], vec![3], vec![]),
            (Wait { req: 1 }, vec![], vec![], vec![]),
            (Waitall { reqs: vec![1, 2] }, vec![], vec![], vec![]),
            (
                Sendrecv {
                    dest_rel: 1,
                    send_tag: 2,
                    send_bytes: 3,
                    src_rel: 4,
                    recv_tag: 5,
                    recv_bytes: 6,
                    comm: 7,
                },
                vec![1, 4],
                vec![3, 6],
                vec![],
            ),
            (Barrier { comm: 1 }, vec![], vec![], vec![]),
            (Bcast { comm: 1, root: 2, bytes: 3 }, vec![], vec![3], vec![]),
            (Reduce { comm: 1, root: 2, bytes: 3 }, vec![], vec![3], vec![]),
            (Allreduce { comm: 1, bytes: 2 }, vec![], vec![2], vec![]),
            (Allgather { comm: 1, bytes: 2 }, vec![], vec![2], vec![]),
            (Alltoall { comm: 1, bytes_per_peer: 2 }, vec![], vec![2], vec![]),
            (
                Alltoallv { comm: 1, send_counts: vec![2, 3], recv_counts: vec![4, 5] },
                vec![],
                vec![],
                vec![vec![2, 3], vec![4, 5]],
            ),
            (Gather { comm: 1, root: 2, bytes: 3 }, vec![], vec![3], vec![]),
            (Scatter { comm: 1, root: 2, bytes: 3 }, vec![], vec![3], vec![]),
            (Gatherv { comm: 1, root: 2, counts: vec![3, 4] }, vec![], vec![], vec![vec![3, 4]]),
            (Scatterv { comm: 1, root: 2, counts: vec![3, 4] }, vec![], vec![], vec![vec![3, 4]]),
            (Scan { comm: 1, bytes: 2 }, vec![], vec![2], vec![]),
            (ReduceScatterBlock { comm: 1, bytes_per_rank: 2 }, vec![], vec![2], vec![]),
            (CommSplit { parent: 1, color: 2, key: 3, result: Some(4) }, vec![], vec![], vec![]),
            (CommDup { parent: 1, result: 2 }, vec![], vec![], vec![]),
            (CommFree { comm: 1 }, vec![], vec![], vec![]),
        ]
    }

    #[test]
    fn walks_visit_exactly_the_peer_size_and_count_fields() {
        let cases = every_variant();
        let names: std::collections::HashSet<_> = cases.iter().map(|c| c.0.func_name()).collect();
        assert_eq!(names.len(), 23, "one case per variant");
        for (mut e, peers, sizes, counts) in cases {
            let name = e.func_name();
            assert_eq!(e.peers_mut().map(|p| *p).collect::<Vec<_>>(), peers, "{name} peers");
            assert_eq!(e.sizes_mut().map(|b| *b).collect::<Vec<_>>(), sizes, "{name} sizes");
            assert_eq!(e.counts_mut().map(|c| c.clone()).collect::<Vec<_>>(), counts, "{name}");
            let volumes: Vec<u64> = sizes.iter().chain(counts.iter().flatten()).copied().collect();
            assert_eq!(e.volumes_mut().map(|v| *v).collect::<Vec<_>>(), volumes, "{name} volumes");
            // The walks borrow the fields themselves: a rewrite through
            // them lands in the event.
            let before = e.clone();
            e.peers_mut().for_each(|p| *p += 100);
            e.volumes_mut().for_each(|v| *v += 100);
            assert_eq!(e == before, peers.is_empty() && volumes.is_empty(), "{name}");
            e.peers_mut().for_each(|p| *p -= 100);
            e.volumes_mut().for_each(|v| *v -= 100);
            assert_eq!(e, before, "{name}");
        }
    }

    #[test]
    fn events_hash_structurally() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(CommEvent::Send { rel: 1, tag: 0, bytes: 64, comm: 0 });
        assert!(set.contains(&CommEvent::Send { rel: 1, tag: 0, bytes: 64, comm: 0 }));
        assert!(!set.contains(&CommEvent::Send { rel: 2, tag: 0, bytes: 64, comm: 0 }));
    }
}
