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
//! switch. The all-member collectives (barrier, `allreduce`, `allgather`,
//! `alltoall`, `reduce_scatter_block` and `comm_dup`) run again on
//! platform B at p = 130: three 64-core nodes and not a power of two, so
//! recursive doubling folds four ranks and every ring crosses three node
//! boundaries. Point-to-point cases follow at p ∈ {2, 3, 5, 8, 13, 64}:
//! blocking `send`/`recv` pairs, `irecv`/`isend` with `waitall`, a
//! `sendrecv` ring, and `alltoallv` with asymmetric and zero counts. The
//! nine evaluation programs at 16 ranks close the set.
//!
//! Regenerate after an *intended* timing-model change with:
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test -p siesta-bench --test virtual_time_fixtures
//! git diff tests/fixtures/virtual_time.txt
//! ```

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use siesta_mpisim::{Communicator, Rank, RankFut, Request, RunStats, World, ANY_TAG};
use siesta_perfmodel::noise::combine;
use siesta_perfmodel::{
    platform_a, platform_b, CollectiveAlgo, KernelDesc, Machine, MpiFlavor, Platform,
};
use siesta_workloads::{ProblemSize, Program};

const RANKS: [usize; 7] = [1, 2, 3, 5, 8, 13, 64];

/// World size of the platform-B cases: three of its 64-core nodes, and
/// two ranks past a power of two.
const B_RANKS: usize = 130;

/// The collectives that complete at a quorum, run on platform B.
const B_OPS: [Op; 6] =
    [Op::Barrier, Op::Allreduce, Op::Allgather, Op::Alltoall, Op::ReduceScatterBlock, Op::CommDup];

/// Held by every test of this binary: the receive-path test turns on the
/// process-global profiling switch and reads process-global counters, to
/// which the other test's runs would add.
static COUNTERS: Mutex<()> = Mutex::new(());

/// World sizes of the point-to-point cases: a one-rank world has no peer.
const P2P_RANKS: [usize; 6] = [2, 3, 5, 8, 13, 64];

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

/// Point-to-point cases. Each iteration of a case sends one payload from
/// `SIZES`, after the same rank-dependent `skew` as the collectives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum P2p {
    /// Blocking `send`/`recv` between pair partners. Which side of a pair
    /// sends first alternates, so receives are posted both before and
    /// after their message arrives.
    SendRecv,
    /// Three `irecv`s from one source and tag (non-overtaking), then one
    /// `ANY_TAG` `irecv`, matched by four `isend`s, then one `waitall`.
    Nonblocking,
    /// A `sendrecv` ring whose shift changes every iteration.
    SendrecvRing,
    /// `alltoallv` with asymmetric and zero counts: member i's
    /// `send_counts[j]` is member j's `recv_counts[i]`.
    AlltoallvAsymmetric,
}

const P2P_CASES: [P2p; 4] =
    [P2p::SendRecv, P2p::Nonblocking, P2p::SendrecvRing, P2p::AlltoallvAsymmetric];

impl P2p {
    fn name(self) -> &'static str {
        match self {
            P2p::SendRecv => "send_recv",
            P2p::Nonblocking => "isend_irecv_waitall",
            P2p::SendrecvRing => "sendrecv_ring",
            P2p::AlltoallvAsymmetric => "alltoallv_asymmetric",
        }
    }
}

/// Pair partner of local rank `r` in iteration `i`: ranks pair as
/// (2k, 2k + 1) after a rotation by `i`, so with odd `p` a different rank
/// sits out each iteration.
fn partner(p: usize, i: usize, r: usize) -> Option<usize> {
    let v = ((r + i) % p) ^ 1;
    (v < p).then(|| (v + p - i % p) % p)
}

/// Message sizes of one `Nonblocking` iteration, in send order: three on
/// one tag, then the one the `ANY_TAG` receive takes.
fn nonblocking_sizes(bytes: usize) -> [usize; 4] {
    [bytes, bytes / 2, bytes + 8, bytes / 4]
}

/// `alltoallv` count from local rank `a` to `b` in iteration `i`: not
/// symmetric in `a` and `b`, and zero for a third of the pairs in even
/// iterations.
fn asym_count(i: usize, bytes: usize, a: usize, b: usize) -> usize {
    if i.is_multiple_of(2) && (a + 2 * b).is_multiple_of(3) {
        0
    } else {
        bytes + 8 * ((3 * a + b) % 5)
    }
}

async fn run_p2p(rank: &mut Rank, comm: &Communicator, case: P2p, i: usize, bytes: usize) {
    let p = comm.size();
    let r = comm.rank();
    let tag = i as i32;
    match case {
        P2p::SendRecv => {
            if let Some(peer) = partner(p, i, r) {
                // The lower rank of a pair sends first in even iterations.
                if (r < peer) == i.is_multiple_of(2) {
                    rank.send(comm, peer, tag, bytes).await;
                    rank.recv(comm, peer, tag, bytes).await;
                } else {
                    rank.recv(comm, peer, tag, bytes).await;
                    rank.send(comm, peer, tag, bytes).await;
                }
            }
        }
        P2p::Nonblocking => {
            let right = (r + 1) % p;
            let left = (r + p - 1) % p;
            let sizes = nonblocking_sizes(bytes);
            let mut reqs: Vec<Request> =
                sizes[..3].iter().map(|&b| rank.irecv(comm, left, 7, b)).collect();
            reqs.push(rank.irecv(comm, left, ANY_TAG, sizes[3]));
            for (k, &b) in sizes.iter().enumerate() {
                let send_tag = if k < 3 { 7 } else { 100 + tag };
                reqs.push(rank.isend(comm, right, send_tag, b));
            }
            rank.waitall(&reqs).await;
        }
        P2p::SendrecvRing => {
            let shift = 1 + i % (p - 1);
            let (dst, src) = ((r + shift) % p, (r + p - shift) % p);
            rank.sendrecv(comm, dst, tag, bytes, src, tag, bytes).await;
        }
        P2p::AlltoallvAsymmetric => {
            let send: Vec<usize> = (0..p).map(|j| asym_count(i, bytes, r, j)).collect();
            let recv: Vec<usize> = (0..p).map(|j| asym_count(i, bytes, j, r)).collect();
            rank.alltoallv(comm, &send, &recv).await;
        }
    }
}

/// Run `case` over `iterations`, each an (index into `SIZES`, payload)
/// pair.
fn run_p2p_case(flavor: MpiFlavor, p: usize, case: P2p, iterations: &[(usize, usize)]) -> RunStats {
    World::new(Machine::new(platform_a(), flavor), p).run(move |mut rank| -> RankFut<'_> {
        Box::pin(async move {
            let comm = rank.comm_world();
            for &(i, bytes) in iterations {
                skew(&mut rank, i);
                run_p2p(&mut rank, &comm, case, i, bytes).await;
            }
            rank
        })
    })
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

fn run_case(platform: Platform, flavor: MpiFlavor, p: usize, op: Op) -> RunStats {
    World::new(Machine::new(platform, flavor), p).run(move |mut rank| -> RankFut<'static> {
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
                let stats = run_case(platform_a(), flavor, p, op);
                lines.push(format!("{} p={p} {} {}", flavor.name(), op.name(), fingerprint(&stats)));
            }
        }
    }
    for flavor in MpiFlavor::ALL {
        for op in B_OPS {
            let stats = run_case(platform_b(), flavor, B_RANKS, op);
            let machine = Machine::new(platform_b(), flavor).label();
            lines.push(format!("{machine} p={B_RANKS} {} {}", op.name(), fingerprint(&stats)));
        }
    }
    let every_size: Vec<(usize, usize)> = SIZES.iter().copied().enumerate().collect();
    for flavor in MpiFlavor::ALL {
        for p in P2P_RANKS {
            for case in P2P_CASES {
                let stats = run_p2p_case(flavor, p, case, &every_size);
                let fp = fingerprint(&stats);
                lines.push(format!("{} p={p} {} {fp}", flavor.name(), case.name()));
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
    let _g = COUNTERS.lock().unwrap();
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

/// The branches an all-member collective's cases take over `worlds`
/// (platform, p) on every flavour, and which of them sent eager (`false`)
/// and rendezvous (`true`) first-round messages.
type Reached = (BTreeSet<&'static str>, BTreeSet<(&'static str, bool)>);

fn reached(op: Op, worlds: &[(Platform, usize)]) -> Reached {
    let mut branches = BTreeSet::new();
    let mut protocols = BTreeSet::new();
    for flavor in MpiFlavor::ALL {
        for &(platform, p) in worlds {
            let eager = Machine::new(platform, flavor).net.eager_threshold;
            for &bytes in op.sizes() {
                if let Some(b) = branch(flavor, op, p, bytes) {
                    branches.insert(b);
                    protocols.insert((b, first_message_bytes(op, b, p, bytes) > eager));
                }
            }
        }
    }
    (branches, protocols)
}

#[test]
fn cases_reach_every_branch_of_the_all_member_collectives() {
    // (collective, branches over every case, branches of the platform-B
    // cases alone, where p = 130 rules out the power-of-two ones).
    let expected: [(Op, &[&str], &[&str]); 6] = [
        (Op::Barrier, &["dissemination"], &["dissemination"]),
        (Op::CommDup, &["dissemination"], &["dissemination"]),
        (Op::ReduceScatterBlock, &["ring"], &["ring"]),
        (
            Op::Allreduce,
            &["ring", "recursive doubling", "recursive doubling with fold"],
            &["ring", "recursive doubling with fold"],
        ),
        (
            Op::Allgather,
            &["ring", "recursive doubling", "ring (non-power-of-two)"],
            &["ring", "ring (non-power-of-two)"],
        ),
        (Op::Alltoall, &["bruck", "pairwise"], &["bruck", "pairwise"]),
    ];
    let on_b = [(platform_b(), B_RANKS)];
    let mut every: Vec<(Platform, usize)> = RANKS.iter().map(|&p| (platform_a(), p)).collect();
    every.extend(on_b);
    for (op, branches, b_branches) in expected {
        assert!(B_OPS.contains(&op), "{} has no platform-B cases", op.name());
        let (all, protocols) = reached(op, &every);
        let want: BTreeSet<&str> = branches.iter().copied().collect();
        assert_eq!(all, want, "{} branches", op.name());
        for b in branches.iter().filter(|b| **b != "dissemination") {
            assert!(
                protocols.contains(&(b, false)) && protocols.contains(&(b, true)),
                "{} {b}: cases must send eager and rendezvous messages",
                op.name()
            );
        }
        let want: BTreeSet<&str> = b_branches.iter().copied().collect();
        assert_eq!(reached(op, &on_b).0, want, "{} branches on platform B", op.name());
    }
    // Every flavour's eager threshold is straddled by the payload grid.
    for flavor in MpiFlavor::ALL {
        for platform in [platform_a(), platform_b()] {
            let eager = Machine::new(platform, flavor).net.eager_threshold;
            assert!(SIZES.contains(&eager) && SIZES.contains(&(eager + 1)), "{}", flavor.name());
        }
    }
}

/// Whether every message of iteration `i` of `case`, with payload `bytes`
/// in a `p`-rank world, is rendezvous (`Some(true)`) or eager
/// (`Some(false)`); `None` if the iteration sends both.
fn protocol(case: P2p, p: usize, i: usize, bytes: usize, eager: usize) -> Option<bool> {
    let sizes: Vec<usize> = match case {
        P2p::SendRecv | P2p::SendrecvRing => vec![bytes],
        P2p::Nonblocking => nonblocking_sizes(bytes).to_vec(),
        P2p::AlltoallvAsymmetric => (0..p)
            .flat_map(|a| (0..p).filter(move |&b| b != a).map(move |b| asym_count(i, bytes, a, b)))
            .collect(),
    };
    match sizes.iter().filter(|&&b| b > eager).count() {
        0 => Some(false),
        n if n == sizes.len() => Some(true),
        _ => None,
    }
}

#[test]
fn point_to_point_cases_complete_receives_both_at_post_and_parked() {
    // Each case runs once with only its all-eager iterations and once with
    // only its all-rendezvous ones, at one worker thread, where the split
    // between the engine's two receive paths is deterministic.
    let _g = COUNTERS.lock().unwrap();
    let at_post = siesta_obs::counter("obs.sim.recv.at_post");
    let parked = siesta_obs::counter("obs.sim.recv.parked");
    siesta_obs::set_profiling_enabled(true);
    for case in P2P_CASES {
        // (rendezvous, completed at post) pairs reached.
        let mut reached = BTreeSet::new();
        for flavor in MpiFlavor::ALL {
            let eager = Machine::new(platform_a(), flavor).net.eager_threshold;
            for p in P2P_RANKS {
                for rendezvous in [false, true] {
                    let iterations: Vec<(usize, usize)> = SIZES
                        .iter()
                        .copied()
                        .enumerate()
                        .filter(|&(i, b)| protocol(case, p, i, b, eager) == Some(rendezvous))
                        .collect();
                    let before = (at_post.get(), parked.get());
                    siesta_par::with_threads(1, || run_p2p_case(flavor, p, case, &iterations));
                    if at_post.get() > before.0 {
                        reached.insert((rendezvous, true));
                    }
                    if parked.get() > before.1 {
                        reached.insert((rendezvous, false));
                    }
                }
            }
        }
        let want: BTreeSet<(bool, bool)> =
            [(false, false), (false, true), (true, false), (true, true)].into();
        assert_eq!(reached, want, "{}: (rendezvous, completed at post) reached", case.name());
    }
    siesta_obs::set_profiling_enabled(false);
    siesta_obs::drain_spans();
}
