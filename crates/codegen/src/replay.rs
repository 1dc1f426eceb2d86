//! Replay a [`ProxyProgram`] on the virtual-time MPI runtime.
//!
//! This interpreter is the executable twin of the emitted C code: each rank
//! walks its merged main rule (filtering symbols by rank list), expands
//! non-terminals as function calls, and executes terminals — MPI calls with
//! decoded relative ranks and pool handles, or block-combination compute
//! proxies whose cost is evaluated on the *replay* machine's CPU model.
//! Because block costs are re-evaluated per machine, a proxy generated on
//! platform A speeds up or slows down on platform B the way the original
//! computation does — the paper's portability mechanism (Figures 8–9).

use std::collections::HashMap;
use std::future::Future;
use std::pin::Pin;

use siesta_grammar::Sym;
use siesta_mpisim::{Communicator, Rank, Request, RunStats, World};
use siesta_perfmodel::{CounterVec, KernelDesc, Machine};
use siesta_proxy::{blocks_for, NUM_BLOCKS};
use siesta_trace::{abs_rank, CommEvent};

use crate::ir::{ProxyProgram, TerminalOp};

/// Execute the proxy program on `machine` and return run statistics.
///
/// The returned elapsed time is the proxy-app's execution time; multiply by
/// `program.scale` to get the reproduced (predicted) original time, as the
/// paper does for Siesta-scaled.
pub fn replay(program: &ProxyProgram, machine: Machine) -> RunStats {
    let blocks = blocks_for(&machine.platform.cpu);
    let blocks = &blocks;
    World::new(machine, program.nranks).run(move |mut rank| {
        Box::pin(async move {
            replay_rank(&mut rank, program, blocks).await;
            rank
        })
    })
}

/// One rank's handle tables while it replays normalized events: the live
/// communicator and request behind each pool number.
pub struct ReplayCtx {
    comms: HashMap<u32, Communicator>,
    reqs: HashMap<u32, Request>,
}

impl ReplayCtx {
    /// Tables holding only `MPI_COMM_WORLD`, as pool number 0.
    pub fn new(rank: &Rank) -> ReplayCtx {
        ReplayCtx { comms: HashMap::from([(0, rank.comm_world())]), reqs: HashMap::new() }
    }
}

async fn replay_rank(rank: &mut Rank, program: &ProxyProgram, blocks: &[KernelDesc; NUM_BLOCKS]) {
    let me = rank.rank() as u32;
    let main = match program.mains.iter().find(|m| m.ranks.contains(me)) {
        Some(m) => m,
        None => return,
    };
    let mut ctx = ReplayCtx::new(rank);
    // Clone the body reference walk: main body symbols in order.
    for ms in &main.body {
        if !ms.ranks.contains(me) {
            continue;
        }
        for _ in 0..ms.exp {
            exec_sym(rank, program, blocks, &mut ctx, ms.sym).await;
        }
    }
    debug_assert_eq!(rank.outstanding_requests(), 0, "proxy left requests pending");
}

/// Rule expansion is recursive, and async fns cannot recurse without
/// indirection, so each level returns a boxed future.
fn exec_sym<'a>(
    rank: &'a mut Rank,
    program: &'a ProxyProgram,
    blocks: &'a [KernelDesc; NUM_BLOCKS],
    ctx: &'a mut ReplayCtx,
    sym: Sym,
) -> Pin<Box<dyn Future<Output = ()> + Send + 'a>> {
    Box::pin(async move {
        match sym {
            Sym::T(t) => exec_terminal(rank, &program.terminals[t as usize], blocks, ctx).await,
            Sym::N(n) => {
                // Work around borrow rules by indexing; rule bodies are small.
                for i in 0..program.rules[n as usize].len() {
                    let rs = program.rules[n as usize][i];
                    for _ in 0..rs.exp {
                        exec_sym(rank, program, blocks, ctx, rs.sym).await;
                    }
                }
            }
        }
    })
}

async fn exec_terminal(
    rank: &mut Rank,
    op: &TerminalOp,
    blocks: &[KernelDesc; NUM_BLOCKS],
    ctx: &mut ReplayCtx,
) {
    match op {
        TerminalOp::Compute { proxy, .. } => {
            let exact = proxy.counters_on(rank.machine().cpu(), blocks);
            rank.compute_counters(&exact);
        }
        TerminalOp::Comm(event) => exec_comm(rank, event, ctx).await,
    }
}

fn comm_of(ctx: &ReplayCtx, id: u32) -> &Communicator {
    ctx.comms
        .get(&id)
        .expect("proxy used a communicator before creating it")
}

/// Make the `Rank` call a normalized event records, decoding its relative
/// ranks and pool numbers through `ctx`: the one interpreter of
/// [`CommEvent`]s, shared by proxy replay and the ScalaBench-like
/// baseline.
pub async fn exec_comm(rank: &mut Rank, event: &CommEvent, ctx: &mut ReplayCtx) {
    match event {
        CommEvent::Send { rel, tag, bytes, comm } => {
            let c = comm_of(ctx, *comm).clone();
            let dest = abs_rank(c.rank(), *rel, c.size());
            rank.send(&c, dest, *tag, *bytes as usize).await;
        }
        CommEvent::Recv { rel, tag, bytes, comm } => {
            let c = comm_of(ctx, *comm).clone();
            let src = abs_rank(c.rank(), *rel, c.size());
            rank.recv(&c, src, *tag, *bytes as usize).await;
        }
        CommEvent::Isend { rel, tag, bytes, comm, req } => {
            let c = comm_of(ctx, *comm).clone();
            let dest = abs_rank(c.rank(), *rel, c.size());
            let r = rank.isend(&c, dest, *tag, *bytes as usize);
            ctx.reqs.insert(*req, r);
        }
        CommEvent::Irecv { rel, tag, bytes, comm, req } => {
            let c = comm_of(ctx, *comm).clone();
            let src = abs_rank(c.rank(), *rel, c.size());
            let r = rank.irecv(&c, src, *tag, *bytes as usize);
            ctx.reqs.insert(*req, r);
        }
        CommEvent::Wait { req } => {
            let r = ctx.reqs.remove(req).expect("wait on unknown proxy request");
            rank.wait(r).await;
        }
        CommEvent::Waitall { reqs } => {
            let rs: Vec<Request> = reqs
                .iter()
                .map(|id| ctx.reqs.remove(id).expect("waitall on unknown proxy request"))
                .collect();
            rank.waitall(&rs).await;
        }
        CommEvent::Sendrecv {
            dest_rel,
            send_tag,
            send_bytes,
            src_rel,
            recv_tag,
            recv_bytes,
            comm,
        } => {
            let c = comm_of(ctx, *comm).clone();
            let dest = abs_rank(c.rank(), *dest_rel, c.size());
            let src = abs_rank(c.rank(), *src_rel, c.size());
            rank.sendrecv(
                &c,
                dest,
                *send_tag,
                *send_bytes as usize,
                src,
                *recv_tag,
                *recv_bytes as usize,
            )
            .await;
        }
        CommEvent::Barrier { comm } => {
            let c = comm_of(ctx, *comm).clone();
            rank.barrier(&c).await;
        }
        CommEvent::Bcast { comm, root, bytes } => {
            let c = comm_of(ctx, *comm).clone();
            rank.bcast(&c, *root as usize, *bytes as usize).await;
        }
        CommEvent::Reduce { comm, root, bytes } => {
            let c = comm_of(ctx, *comm).clone();
            rank.reduce(&c, *root as usize, *bytes as usize).await;
        }
        CommEvent::Allreduce { comm, bytes } => {
            let c = comm_of(ctx, *comm).clone();
            rank.allreduce(&c, *bytes as usize).await;
        }
        CommEvent::Allgather { comm, bytes } => {
            let c = comm_of(ctx, *comm).clone();
            rank.allgather(&c, *bytes as usize).await;
        }
        CommEvent::Alltoall { comm, bytes_per_peer } => {
            let c = comm_of(ctx, *comm).clone();
            rank.alltoall(&c, *bytes_per_peer as usize).await;
        }
        CommEvent::Alltoallv { comm, send_counts, recv_counts } => {
            let c = comm_of(ctx, *comm).clone();
            let sc: Vec<usize> = send_counts.iter().map(|&v| v as usize).collect();
            let rc: Vec<usize> = recv_counts.iter().map(|&v| v as usize).collect();
            rank.alltoallv(&c, &sc, &rc).await;
        }
        CommEvent::Gather { comm, root, bytes } => {
            let c = comm_of(ctx, *comm).clone();
            rank.gather(&c, *root as usize, *bytes as usize).await;
        }
        CommEvent::Scatter { comm, root, bytes } => {
            let c = comm_of(ctx, *comm).clone();
            rank.scatter(&c, *root as usize, *bytes as usize).await;
        }
        CommEvent::Gatherv { comm, root, counts } => {
            let c = comm_of(ctx, *comm).clone();
            let counts: Vec<usize> = counts.iter().map(|&v| v as usize).collect();
            rank.gatherv(&c, *root as usize, &counts).await;
        }
        CommEvent::Scatterv { comm, root, counts } => {
            let c = comm_of(ctx, *comm).clone();
            let counts: Vec<usize> = counts.iter().map(|&v| v as usize).collect();
            rank.scatterv(&c, *root as usize, &counts).await;
        }
        CommEvent::Scan { comm, bytes } => {
            let c = comm_of(ctx, *comm).clone();
            rank.scan(&c, *bytes as usize).await;
        }
        CommEvent::ReduceScatterBlock { comm, bytes_per_rank } => {
            let c = comm_of(ctx, *comm).clone();
            rank.reduce_scatter_block(&c, *bytes_per_rank as usize).await;
        }
        CommEvent::CommSplit { parent, color, key, result } => {
            let p = comm_of(ctx, *parent).clone();
            let created = rank.comm_split(&p, *color, *key).await;
            match (result, created) {
                (Some(id), Some(c)) => {
                    ctx.comms.insert(*id, c);
                }
                (None, None) => {}
                (r, c) => panic!(
                    "split outcome mismatch at replay: recorded {r:?}, got {}",
                    c.is_some()
                ),
            }
        }
        CommEvent::CommDup { parent, result } => {
            let p = comm_of(ctx, *parent).clone();
            let c = rank.comm_dup(&p).await;
            ctx.comms.insert(*result, c);
        }
        CommEvent::CommFree { comm } => {
            let c = ctx.comms.remove(comm).expect("free of unknown proxy communicator");
            rank.comm_free(c);
        }
    }
}

/// Diagnostic: total compute-proxy counters the program will produce per
/// rank on a machine (noise-free), for error analysis without running.
pub fn predicted_compute_counters(
    program: &ProxyProgram,
    machine: &Machine,
    rank: u32,
) -> CounterVec {
    let blocks = blocks_for(&machine.platform.cpu);
    let mut acc = CounterVec::ZERO;
    for t in program.expand_for_rank(rank) {
        if let TerminalOp::Compute { proxy, .. } = &program.terminals[t as usize] {
            acc += proxy.counters_on(&machine.platform.cpu, &blocks);
        }
    }
    acc
}
