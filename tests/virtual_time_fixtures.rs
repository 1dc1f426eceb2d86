//! Virtual-time fixtures: the simulator's clocks, pinned across commits.
//!
//! The golden fixtures pin trace structure and artifact bytes, and the
//! determinism suites compare runs within one build. Neither notices a
//! change that moves *when* calls complete while keeping their order. This
//! suite does: every case runs a small world and records its
//! `schedule_hash` plus a digest of every rank's `finish_ns`, `wait_ns` and
//! `mpi_ns` bits, and `tests/fixtures/virtual_time.txt` holds the recorded
//! values.
//!
//! The cases cover every public collective plus `comm_dup` and
//! `comm_split`, on all three MPI flavours, at p ∈ {1, 2, 3, 5, 8, 13, 64}
//! (64 ranks span two nodes on platform A). Each call is preceded by a
//! rank-dependent `compute`, so members enter with different clocks, and
//! payloads sit on both sides of every eager threshold and algorithm
//! switch. The nine evaluation programs at 16 ranks close the set.
//!
//! Regenerate after an *intended* timing-model change with:
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test -p siesta-bench --test virtual_time_fixtures
//! git diff tests/fixtures/virtual_time.txt
//! ```

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use siesta_mpisim::{Communicator, Rank, RankFut, RunStats, World};
use siesta_perfmodel::noise::combine;
use siesta_perfmodel::{platform_a, CollectiveAlgo, KernelDesc, Machine, MpiFlavor};
use siesta_workloads::{ProblemSize, Program};

const RANKS: [usize; 7] = [1, 2, 3, 5, 8, 13, 64];

/// Payloads straddling the eager thresholds (4096 / 8192 / 16384) and the
/// flavours' algorithm switches (Bruck ≤ 256 / 512, bcast ≤ 8192 / 12288,
/// allreduce ≤ 16384 / 32768, reduce ≤ 65536, allgather p·bytes ≤ 65536).
const SIZES: [usize; 21] = [
    0, 8, 256, 257, 512, 513, 1024, 1025, 4096, 4097, 8192, 8193, 12288, 12289, 16384, 16385,
    32768, 32769, 65536, 65537, 1 << 20,
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Barrier,
    Bcast,
    Reduce,
    Allreduce,
    Allgather,
    Alltoall,
    Alltoallv,
    Gather,
    Scatter,
    Gatherv,
    Scatterv,
    Scan,
    ReduceScatterBlock,
    CommDup,
    CommSplit,
}

const OPS: [Op; 15] = [
    Op::Barrier,
    Op::Bcast,
    Op::Reduce,
    Op::Allreduce,
    Op::Allgather,
    Op::Alltoall,
    Op::Alltoallv,
    Op::Gather,
    Op::Scatter,
    Op::Gatherv,
    Op::Scatterv,
    Op::Scan,
    Op::ReduceScatterBlock,
    Op::CommDup,
    Op::CommSplit,
];

impl Op {
    fn name(self) -> &'static str {
        match self {
            Op::Barrier => "barrier",
            Op::Bcast => "bcast",
            Op::Reduce => "reduce",
            Op::Allreduce => "allreduce",
            Op::Allgather => "allgather",
            Op::Alltoall => "alltoall",
            Op::Alltoallv => "alltoallv",
            Op::Gather => "gather",
            Op::Scatter => "scatter",
            Op::Gatherv => "gatherv",
            Op::Scatterv => "scatterv",
            Op::Scan => "scan",
            Op::ReduceScatterBlock => "reduce_scatter_block",
            Op::CommDup => "comm_dup",
            Op::CommSplit => "comm_split",
        }
    }

    /// Payloads this case sweeps. Calls that move no payload need only a
    /// few repetitions (the index still varies skew, roots and colours).
    fn sizes(self) -> &'static [usize] {
        match self {
            Op::Barrier | Op::CommDup | Op::CommSplit => &SIZES[..4],
            _ => &SIZES,
        }
    }
}

fn fixture_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures/virtual_time.txt")
}

fn updating() -> bool {
    std::env::var_os("UPDATE_GOLDEN").is_some_and(|v| v != "0" && !v.is_empty())
}

/// Rank-dependent computation before each call, so entry clocks differ.
fn skew(rank: &mut Rank, i: usize) {
    let points = 64.0 + 48.0 * ((rank.rank() * 7 + i * 3) % 11) as f64;
    rank.compute(&KernelDesc::stencil(points, 4.0, points * 8.0));
}

/// `alltoallv` count from local rank `a` to `b`: symmetric, so each rank's
/// receive counts are its send counts.
fn pair_count(bytes: usize, a: usize, b: usize) -> usize {
    bytes + 8 * ((a + b) % 3)
}

async fn run_op(rank: &mut Rank, comm: &Communicator, op: Op, i: usize, bytes: usize) {
    let p = comm.size();
    let root = i % p;
    match op {
        Op::Barrier => rank.barrier(comm).await,
        Op::Bcast => rank.bcast(comm, root, bytes).await,
        Op::Reduce => rank.reduce(comm, root, bytes).await,
        Op::Allreduce => rank.allreduce(comm, bytes).await,
        Op::Allgather => rank.allgather(comm, bytes).await,
        Op::Alltoall => rank.alltoall(comm, bytes).await,
        Op::Alltoallv => {
            let r = comm.rank();
            let counts: Vec<usize> = (0..p).map(|j| pair_count(bytes, r, j)).collect();
            rank.alltoallv(comm, &counts, &counts).await;
        }
        Op::Gather => rank.gather(comm, root, bytes).await,
        Op::Scatter => rank.scatter(comm, root, bytes).await,
        Op::Gatherv => {
            let counts: Vec<usize> = (0..p).map(|j| bytes + 16 * j).collect();
            rank.gatherv(comm, root, &counts).await;
        }
        Op::Scatterv => {
            let counts: Vec<usize> = (0..p).map(|j| bytes + 16 * j).collect();
            rank.scatterv(comm, root, &counts).await;
        }
        Op::Scan => rank.scan(comm, bytes).await,
        Op::ReduceScatterBlock => rank.reduce_scatter_block(comm, bytes).await,
        Op::CommDup => {
            let dup = rank.comm_dup(comm).await;
            rank.barrier(&dup).await;
            rank.comm_free(dup);
        }
        Op::CommSplit => {
            // Three colours keyed in reverse: explicit groups that span
            // both nodes at p = 64, then collectives inside them.
            let me = comm.rank();
            let color = ((me + i) % 3) as i64;
            if let Some(sub) = rank.comm_split(comm, color, -(me as i64)).await {
                rank.allreduce(&sub, 8 << i).await;
                rank.alltoall(&sub, 64 << i).await;
                let dup = rank.comm_dup(&sub).await;
                rank.allgather(&dup, 32 << i).await;
                rank.comm_free(dup);
                rank.comm_free(sub);
            }
        }
    }
}

fn run_case(flavor: MpiFlavor, p: usize, op: Op) -> RunStats {
    World::new(Machine::new(platform_a(), flavor), p).run(move |mut rank| -> RankFut<'static> {
        Box::pin(async move {
            let comm = rank.comm_world();
            for (i, &bytes) in op.sizes().iter().enumerate() {
                skew(&mut rank, i);
                run_op(&mut rank, &comm, op, i, bytes).await;
            }
            rank
        })
    })
}

/// `sched=<schedule hash> ranks=<digest of every rank's clock bits>`.
fn fingerprint(stats: &RunStats) -> String {
    let ranks = stats.per_rank.iter().fold(0u64, |acc, r| {
        combine(&[acc, r.finish_ns.to_bits(), r.wait_ns.to_bits(), r.mpi_ns.to_bits()])
    });
    format!("sched={:016x} ranks={ranks:016x}", stats.schedule_hash())
}

fn actual_lines() -> Vec<String> {
    let mut lines = Vec::new();
    for flavor in MpiFlavor::ALL {
        for p in RANKS {
            for op in OPS {
                let stats = run_case(flavor, p, op);
                lines.push(format!("{} p={p} {} {}", flavor.name(), op.name(), fingerprint(&stats)));
            }
        }
    }
    let machine = Machine::new(platform_a(), MpiFlavor::OpenMpi);
    for program in Program::ALL {
        let stats = program.run(machine, 16, ProblemSize::Tiny);
        lines.push(format!("program {} p=16 {}", program.name(), fingerprint(&stats)));
    }
    lines
}

#[test]
fn virtual_time_matches_recorded_fixture() {
    let actual = actual_lines();
    let path = fixture_path();
    if updating() {
        std::fs::write(&path, actual.join("\n") + "\n")
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        eprintln!("updated {}", path.display());
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "{}: {e}\nregenerate with: UPDATE_GOLDEN=1 cargo test -p siesta-bench \
             --test virtual_time_fixtures",
            path.display()
        )
    });
    let expected: Vec<&str> = expected.lines().collect();
    assert_eq!(expected.len(), actual.len(), "case count changed");
    let diffs: Vec<String> = expected
        .iter()
        .zip(&actual)
        .filter(|(e, a)| **e != a.as_str())
        .map(|(e, a)| format!("  expected {e}\n  actual   {a}"))
        .collect();
    assert!(
        diffs.is_empty(),
        "{} of {} virtual-time cases changed:\n{}",
        diffs.len(),
        actual.len(),
        diffs.join("\n")
    );
}

/// The branch of an all-member collective's algorithm a call takes, as the
/// simulator dispatches it (`None` for a one-rank world, which exchanges
/// nothing).
fn branch(flavor: MpiFlavor, op: Op, p: usize, bytes: usize) -> Option<&'static str> {
    if p <= 1 {
        return None;
    }
    Some(match op {
        Op::Barrier | Op::CommDup => "dissemination",
        Op::ReduceScatterBlock => "ring",
        Op::Allreduce => match flavor.allreduce_algo(p, bytes) {
            CollectiveAlgo::Ring => "ring",
            _ if p.is_power_of_two() => "recursive doubling",
            _ => "recursive doubling with fold",
        },
        Op::Allgather => match flavor.allgather_algo(p, bytes) {
            CollectiveAlgo::RecursiveDoubling if p.is_power_of_two() => "recursive doubling",
            CollectiveAlgo::RecursiveDoubling => "ring (non-power-of-two)",
            _ => "ring",
        },
        Op::Alltoall => match flavor.alltoall_algo(p, bytes) {
            CollectiveAlgo::Bruck => "bruck",
            _ => "pairwise",
        },
        _ => return None,
    })
}

/// Bytes of one first-round message of the branch (what picks the wire
/// protocol).
fn first_message_bytes(op: Op, branch: &str, p: usize, bytes: usize) -> usize {
    match (op, branch) {
        (_, "dissemination") => 0,
        (Op::Allreduce, "ring") => bytes.div_ceil(p),
        (_, "bruck") => (1..p).filter(|i| i & 1 != 0).count() * bytes,
        _ => bytes,
    }
}

#[test]
fn cases_reach_every_branch_of_the_all_member_collectives() {
    let expected: [(Op, &[&str]); 6] = [
        (Op::Barrier, &["dissemination"]),
        (Op::CommDup, &["dissemination"]),
        (Op::ReduceScatterBlock, &["ring"]),
        (Op::Allreduce, &["ring", "recursive doubling", "recursive doubling with fold"]),
        (Op::Allgather, &["ring", "recursive doubling", "ring (non-power-of-two)"]),
        (Op::Alltoall, &["bruck", "pairwise"]),
    ];
    for (op, branches) in expected {
        let mut reached = BTreeSet::new();
        let mut protocols = BTreeSet::new();
        for flavor in MpiFlavor::ALL {
            let eager = Machine::new(platform_a(), flavor).net.eager_threshold;
            for p in RANKS {
                for &bytes in op.sizes() {
                    if let Some(b) = branch(flavor, op, p, bytes) {
                        reached.insert(b);
                        let rendezvous = first_message_bytes(op, b, p, bytes) > eager;
                        protocols.insert((b, rendezvous));
                    }
                }
            }
        }
        let want: BTreeSet<&str> = branches.iter().copied().collect();
        assert_eq!(reached, want, "{} branches", op.name());
        for b in branches.iter().filter(|b| **b != "dissemination") {
            assert!(
                protocols.contains(&(b, false)) && protocols.contains(&(b, true)),
                "{} {b}: cases must send eager and rendezvous messages",
                op.name()
            );
        }
    }
    // Every flavour's eager threshold is straddled by the payload grid.
    for flavor in MpiFlavor::ALL {
        let eager = Machine::new(platform_a(), flavor).net.eager_threshold;
        assert!(SIZES.contains(&eager) && SIZES.contains(&(eager + 1)), "{}", flavor.name());
    }
}
