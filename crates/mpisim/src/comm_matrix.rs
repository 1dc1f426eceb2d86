//! Per-rank communication-matrix collection.
//!
//! A [`CommMatrix`] tallies one cell per `(src, dest)` global-rank pair:
//! point-to-point send **counts** and **bytes**, plus per-rank collective
//! contribution bytes (collectives have no single destination, so they
//! get a vector, not matrix cells). This is the communication-pattern
//! view tools like mpiP's sender/receiver histograms and the
//! Caliper/Benchpark studies build their analysis on. It belongs to one
//! run: a [`crate::World`] asked to observe it (`Observe::comm_matrix`,
//! the CLI's `--comm-matrix PATH`) builds a fresh one, records each call
//! into it at the call's post, and returns it in
//! [`crate::RunStats::comm_matrix`]; [`CommMatrix::snapshot`] reads the
//! tallies back.
//!
//! Storage is **sparse**: one hash row per source rank, holding only the
//! destinations that rank actually sent to. Real MPI communication
//! matrices are overwhelmingly sparse (a 64k-rank halo exchange touches
//! 4 neighbours per rank, not 64k), and the previous dense
//! `nranks² × 2` atomic array was the memory wall that kept
//! `--comm-matrix` from running at scale — 64 GiB of cells at 64k ranks
//! versus a few MiB of occupied entries here. Each row has its own lock,
//! and a row is only ever written while its owning rank is being polled
//! — the scheduler polls a rank on at most one worker at a time — so the
//! lock is uncontended in steady state.
//!
//! Only `MPI_COMM_WORLD` point-to-point traffic lands in the matrix: a
//! call record carries communicator-**local** destination ranks (exactly
//! what a PMPI tracer sees), and only for the world communicator is the
//! local rank also the global one. Sends on split/duplicated communicators are
//! tallied in `nonworld_skipped` instead of being misattributed.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use siesta_hash::{fx_map, FxHashMap};

use crate::comm::CommId;
use crate::hook::{HookCtx, MpiCall};

/// The collector of one run: sparse per-source rows, written at post
/// from whichever worker is polling the source rank.
pub struct CommMatrix {
    nranks: usize,
    /// `rows[src][dest] = (count, bytes)` — only touched destinations.
    rows: Vec<Mutex<FxHashMap<u32, (u64, u64)>>>,
    /// Per-source-rank collective contribution bytes.
    collective_bytes: Vec<AtomicU64>,
    /// P2p sends on non-world communicators (not attributable to a
    /// global destination rank from the PMPI view).
    nonworld_skipped: AtomicU64,
}

impl CommMatrix {
    pub(crate) fn new(nranks: usize) -> CommMatrix {
        CommMatrix {
            nranks,
            rows: (0..nranks).map(|_| Mutex::new(fx_map())).collect(),
            collective_bytes: (0..nranks).map(|_| AtomicU64::new(0)).collect(),
            nonworld_skipped: AtomicU64::new(0),
        }
    }

    fn add_p2p(&self, src: usize, dest: usize, nbytes: u64) {
        if dest < self.nranks {
            if let Some(row) = self.rows.get(src) {
                let mut row = row.lock().unwrap();
                let cell = row.entry(dest as u32).or_insert((0, 0));
                cell.0 += 1;
                cell.1 += nbytes;
            }
        }
    }

    /// Flatten into the sorted sparse snapshot form.
    pub fn snapshot(&self) -> CommMatrixSnapshot {
        let mut flat: Vec<(u32, u32, u64, u64)> = Vec::new();
        for (src, row) in self.rows.iter().enumerate() {
            let row = row.lock().unwrap();
            let base = flat.len();
            flat.extend(
                row.iter().map(|(&dest, &(count, bytes))| (src as u32, dest, count, bytes)),
            );
            flat[base..].sort_unstable_by_key(|c| c.1);
        }
        CommMatrixSnapshot {
            nranks: self.nranks,
            cells: flat,
            collective_bytes: self
                .collective_bytes
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            nonworld_skipped: self.nonworld_skipped.load(Ordering::Relaxed),
        }
    }

    /// Tally one completed call: sends only (each message counted once,
    /// at its source); collectives credit the caller's contribution.
    pub(crate) fn record(&self, ctx: &HookCtx, call: &MpiCall) {
        match call {
            MpiCall::Send { comm, dest, bytes, .. }
            | MpiCall::Isend { comm, dest, bytes, .. }
            | MpiCall::Sendrecv { comm, dest, send_bytes: bytes, .. } => {
                if *comm == CommId::WORLD {
                    self.add_p2p(ctx.rank, *dest, *bytes as u64);
                } else {
                    self.nonworld_skipped.fetch_add(1, Ordering::Relaxed);
                }
            }
            MpiCall::Recv { .. }
            | MpiCall::Irecv { .. }
            | MpiCall::Wait { .. }
            | MpiCall::Waitall { .. }
            | MpiCall::CommSplit { .. }
            | MpiCall::CommDup { .. }
            | MpiCall::CommFree { .. }
            | MpiCall::Barrier { .. } => {}
            collective => {
                let contrib = collective.payload_bytes() as u64;
                if contrib > 0 {
                    if let Some(cell) = self.collective_bytes.get(ctx.rank) {
                        cell.fetch_add(contrib, Ordering::Relaxed);
                    }
                }
            }
        }
    }
}

/// Size only: `RunStats` prints its collectors, never their addresses.
impl fmt::Debug for CommMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CommMatrix").field("nranks", &self.nranks).finish_non_exhaustive()
    }
}

/// Final tallies of one instrumented run: occupied cells only, sorted
/// row-major — memory proportional to the pattern, not to `nranks²`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommMatrixSnapshot {
    pub nranks: usize,
    /// `(src, dest, count, bytes)` for every nonzero cell, sorted by
    /// `(src, dest)`.
    pub cells: Vec<(u32, u32, u64, u64)>,
    pub collective_bytes: Vec<u64>,
    pub nonworld_skipped: u64,
}

impl CommMatrixSnapshot {
    fn cell(&self, src: usize, dest: usize) -> Option<&(u32, u32, u64, u64)> {
        self.cells
            .binary_search_by_key(&(src as u32, dest as u32), |c| (c.0, c.1))
            .ok()
            .map(|i| &self.cells[i])
    }

    pub fn count(&self, src: usize, dest: usize) -> u64 {
        self.cell(src, dest).map_or(0, |c| c.2)
    }

    pub fn byte_volume(&self, src: usize, dest: usize) -> u64 {
        self.cell(src, dest).map_or(0, |c| c.3)
    }

    /// Hand-rolled JSON: nonzero point-to-point cells plus per-rank
    /// collective contributions. Deterministic — the simulation is, and
    /// cells are emitted in row-major order.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(64 + self.cells.len() * 48);
        let _ = write!(
            out,
            "{{\n\"nranks\":{},\n\"nonworld_skipped\":{},\n\"p2p\":[",
            self.nranks, self.nonworld_skipped
        );
        for (i, (src, dest, count, bytes)) in self.cells.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n{{\"src\":{src},\"dest\":{dest},\"count\":{count},\"bytes\":{bytes}}}"
            );
        }
        out.push_str("\n],\n\"collective_bytes\":[");
        for (i, b) in self.collective_bytes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{b}");
        }
        out.push_str("]\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use siesta_perfmodel::CounterVec;

    fn ctx(rank: usize) -> HookCtx {
        HookCtx {
            rank,
            clock_ns: 0.0,
            counters: CounterVec::ZERO,
            comm_rank: rank,
            comm_size: 4,
            call_start_ns: 0.0,
            wait_ns: 0.0,
            call_seq: 0,
        }
    }

    #[test]
    fn p2p_and_collectives_tally_separately() {
        let cells = CommMatrix::new(4);
        cells.record(&ctx(0), &MpiCall::Send { comm: CommId::WORLD, dest: 1, tag: 0, bytes: 100 });
        cells.record(
            &ctx(0),
            &MpiCall::Isend { comm: CommId::WORLD, dest: 1, tag: 0, bytes: 28, req: 0 },
        );
        cells.record(
            &ctx(2),
            &MpiCall::Sendrecv {
                comm: CommId::WORLD,
                dest: 3,
                send_tag: 0,
                send_bytes: 64,
                src: 3,
                recv_tag: 0,
                recv_bytes: 999,
            },
        );
        // Receives never double-count.
        cells.record(&ctx(1), &MpiCall::Recv { comm: CommId::WORLD, src: 0, tag: 0, bytes: 100 });
        cells.record(&ctx(3), &MpiCall::Allreduce { comm: CommId::WORLD, bytes: 8 });
        // Non-world sends are skipped, not misattributed.
        let sub = CommId(7);
        assert_ne!(sub, CommId::WORLD);
        cells.record(&ctx(1), &MpiCall::Send { comm: sub, dest: 0, tag: 0, bytes: 5 });

        let snap = cells.snapshot();
        assert_eq!(snap.count(0, 1), 2);
        assert_eq!(snap.byte_volume(0, 1), 128);
        assert_eq!(snap.count(2, 3), 1);
        assert_eq!(snap.byte_volume(2, 3), 64);
        assert_eq!(snap.collective_bytes[3], 8);
        assert_eq!(snap.nonworld_skipped, 1);
        // Only the two touched cells are stored.
        assert_eq!(snap.cells.len(), 2);
        assert_eq!(snap.count(1, 0), 0);
    }

    #[test]
    fn counts_each_message_once_at_its_source() {
        let matrix = CommMatrix::new(2);
        matrix.record(&ctx(0), &MpiCall::Send { comm: CommId::WORLD, dest: 1, tag: 9, bytes: 11 });
        matrix.record(&ctx(1), &MpiCall::Recv { comm: CommId::WORLD, src: 0, tag: 9, bytes: 11 });
        let snap = matrix.snapshot();
        assert_eq!(snap.nranks, 2);
        assert_eq!(snap.count(0, 1), 1);
        assert_eq!(snap.byte_volume(0, 1), 11);
        assert_eq!(snap.count(1, 0), 0);
        assert_eq!(snap.nonworld_skipped, 0);
        // Reading the tallies leaves them in place.
        assert_eq!(matrix.snapshot(), snap);
        assert_eq!(format!("{matrix:?}"), "CommMatrix { nranks: 2, .. }");
    }

    #[test]
    fn json_is_sorted_row_major_and_sparse() {
        let cells = CommMatrix::new(3);
        // Insert out of order within a row; snapshot must sort.
        cells.record(&ctx(1), &MpiCall::Send { comm: CommId::WORLD, dest: 2, tag: 0, bytes: 7 });
        cells.record(&ctx(1), &MpiCall::Send { comm: CommId::WORLD, dest: 0, tag: 0, bytes: 3 });
        cells.record(&ctx(0), &MpiCall::Send { comm: CommId::WORLD, dest: 2, tag: 0, bytes: 1 });
        let snap = cells.snapshot();
        assert_eq!(
            snap.cells,
            vec![(0, 2, 1, 1), (1, 0, 1, 3), (1, 2, 1, 7)]
        );
        let json = snap.to_json();
        let p02 = json.find("\"src\":0,\"dest\":2").unwrap();
        let p10 = json.find("\"src\":1,\"dest\":0").unwrap();
        let p12 = json.find("\"src\":1,\"dest\":2").unwrap();
        assert!(p02 < p10 && p10 < p12);
        assert!(json.contains("\"collective_bytes\":[0,0,0]"));
    }
}
