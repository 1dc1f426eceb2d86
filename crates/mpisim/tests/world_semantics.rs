//! End-to-end semantics of the virtual-time MPI runtime.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use siesta_mpisim::{HookCtx, MpiCall, Observe, PmpiHook, Rank, RankFut, RankHook, World};
use siesta_perfmodel::{
    platform_a, platform_b, platform_c, KernelDesc, Machine, MpiFlavor,
};

fn machine() -> Machine {
    Machine::new(platform_a(), MpiFlavor::OpenMpi)
}

/// A ring exchange where every rank sends then receives (even/odd ordering
/// avoids deadlock), followed by a barrier.
fn ring_program(mut rank: Rank) -> RankFut<'static> {
    Box::pin(async move {
        let comm = rank.comm_world();
        let p = rank.nranks();
        let right = (rank.rank() + 1) % p;
        let left = (rank.rank() + p - 1) % p;
        rank.compute(&KernelDesc::stencil(5_000.0, 4.0, 65536.0));
        if rank.rank().is_multiple_of(2) {
            rank.send(&comm, right, 7, 4096).await;
            rank.recv(&comm, left, 7, 4096).await;
        } else {
            rank.recv(&comm, left, 7, 4096).await;
            rank.send(&comm, right, 7, 4096).await;
        }
        rank.barrier(&comm).await;
        rank
    })
}

#[test]
fn runs_are_deterministic() {
    let a = World::new(machine(), 8).run(ring_program);
    let b = World::new(machine(), 8).run(ring_program);
    for (x, y) in a.per_rank.iter().zip(&b.per_rank) {
        assert_eq!(x.finish_ns, y.finish_ns, "rank {} time differs", x.rank);
        assert_eq!(x.counters, y.counters);
        assert_eq!(x.sched_hash, y.sched_hash);
    }
    assert_eq!(a.schedule_hash(), b.schedule_hash());
}

#[test]
fn schedule_hash_is_stable_across_worker_counts() {
    // The whole-run schedule fingerprint must not depend on how many host
    // workers drive the event scheduler.
    let baseline = World::new(machine(), 8).run(ring_program).schedule_hash();
    for threads in [1, 2, 8] {
        let prev = siesta_par::threads();
        siesta_par::set_threads(threads);
        let h = World::new(machine(), 8).run(ring_program).schedule_hash();
        siesta_par::set_threads(prev);
        assert_eq!(h, baseline, "schedule hash drifted at {threads} workers");
    }
}

#[test]
fn barrier_synchronizes_finish_times() {
    // Ranks do very unequal compute, then barrier: finish times converge.
    let stats = World::new(machine(), 6).run(|mut rank| {
        Box::pin(async move {
            let comm = rank.comm_world();
            let work = (rank.rank() + 1) as f64 * 20_000.0;
            rank.compute(&KernelDesc::stencil(work, 4.0, 65536.0));
            rank.barrier(&comm).await;
            rank
        })
    });
    let max = stats.elapsed_ns();
    for r in &stats.per_rank {
        // Everyone leaves the barrier within a few microseconds of the max.
        assert!(max - r.finish_ns < 50_000.0, "rank {} lags {}", r.rank, max - r.finish_ns);
    }
}

#[test]
fn blocking_send_recv_moves_time_forward() {
    let stats = World::new(machine(), 2).run(|mut rank| {
        Box::pin(async move {
            let comm = rank.comm_world();
            if rank.rank() == 0 {
                rank.send(&comm, 1, 0, 1 << 20).await; // rendezvous-sized
            } else {
                rank.compute(&KernelDesc::stencil(100_000.0, 4.0, 65536.0));
                let st = rank.recv(&comm, 0, 0, 1 << 20).await;
                assert_eq!(st.source, 0);
                assert_eq!(st.bytes, 1 << 20);
            }
            rank
        })
    });
    // The rendezvous sender must have waited for the late receiver.
    let t0 = stats.per_rank[0].finish_ns;
    let t1 = stats.per_rank[1].finish_ns;
    assert!(t0 > 0.0 && t1 > t0 * 0.5);
}

#[test]
fn nonblocking_overlap_beats_blocking_order() {
    // Exchange with isend/irecv completes in about one transfer time,
    // not two, because the transfers overlap.
    let bytes = 1 << 20;
    let blocking = World::new(machine(), 2).run(move |mut rank| {
        Box::pin(async move {
            let comm = rank.comm_world();
            let peer = 1 - rank.rank();
            if rank.rank() == 0 {
                rank.send(&comm, peer, 0, bytes).await;
                rank.recv(&comm, peer, 1, bytes).await;
            } else {
                rank.recv(&comm, peer, 0, bytes).await;
                rank.send(&comm, peer, 1, bytes).await;
            }
            rank
        })
    });
    let overlapped = World::new(machine(), 2).run(move |mut rank| {
        Box::pin(async move {
            let comm = rank.comm_world();
            let peer = 1 - rank.rank();
            let r = rank.irecv(&comm, peer, rank.rank() as i32, bytes);
            let s = rank.isend(&comm, peer, peer as i32, bytes);
            rank.waitall(&[r, s]).await;
            rank
        })
    });
    assert!(
        overlapped.elapsed_ns() < blocking.elapsed_ns(),
        "overlap {} >= blocking {}",
        overlapped.elapsed_ns(),
        blocking.elapsed_ns()
    );
}

#[test]
fn sendrecv_is_deadlock_free_for_large_messages() {
    let stats = World::new(machine(), 4).run(|mut rank| {
        Box::pin(async move {
            let comm = rank.comm_world();
            let p = rank.nranks();
            let right = (rank.rank() + 1) % p;
            let left = (rank.rank() + p - 1) % p;
            // All ranks sendrecv simultaneously with rendezvous-sized payloads.
            rank.sendrecv(&comm, right, 3, 1 << 20, left, 3, 1 << 20).await;
            rank
        })
    });
    assert!(stats.elapsed_ns() > 0.0);
}

#[test]
fn collectives_complete_and_cost_grows_with_size() {
    for p in [4, 7, 16] {
        let small = World::new(machine(), p).run(|mut rank| {
            Box::pin(async move {
                let comm = rank.comm_world();
                rank.allreduce(&comm, 64).await;
                rank
            })
        });
        let large = World::new(machine(), p).run(|mut rank| {
            Box::pin(async move {
                let comm = rank.comm_world();
                rank.allreduce(&comm, 1 << 22).await;
                rank
            })
        });
        assert!(
            large.elapsed_ns() > small.elapsed_ns(),
            "p={p}: large {} <= small {}",
            large.elapsed_ns(),
            small.elapsed_ns()
        );
    }
}

#[test]
fn all_collectives_run_on_non_power_of_two() {
    let stats = World::new(machine(), 6).run(|mut rank| {
        Box::pin(async move {
            let comm = rank.comm_world();
            rank.bcast(&comm, 0, 4096).await;
            rank.bcast(&comm, 2, 1 << 20).await; // large → ring under openmpi
            rank.reduce(&comm, 0, 4096).await;
            rank.reduce(&comm, 1, 1 << 20).await;
            rank.allreduce(&comm, 4096).await;
            rank.allreduce(&comm, 1 << 20).await;
            rank.allgather(&comm, 4096).await;
            rank.alltoall(&comm, 256).await;
            rank.alltoall(&comm, 1 << 16).await;
            let sc = vec![100usize; 6];
            rank.alltoallv(&comm, &sc, &sc).await;
            rank.gather(&comm, 0, 4096).await;
            rank.gather(&comm, 3, 4096).await;
            rank.scatter(&comm, 0, 4096).await;
            rank.barrier(&comm).await;
            rank
        })
    });
    assert_eq!(stats.per_rank.len(), 6);
    assert!(stats.elapsed_ns() > 0.0);
    // Everyone made the same number of app-level calls (SPMD).
    let calls = stats.per_rank[0].app_calls;
    assert!(stats.per_rank.iter().all(|r| r.app_calls == calls));
}

#[test]
fn comm_split_partitions_and_communicates() {
    let stats = World::new(machine(), 8).run(|mut rank| {
        Box::pin(async move {
            let world = rank.comm_world();
            let color = (rank.rank() % 2) as i64;
            let sub = rank.comm_split(&world, color, rank.rank() as i64).await.unwrap();
            assert_eq!(sub.size(), 4);
            // Ring within the sub-communicator.
            let right = (sub.rank() + 1) % sub.size();
            let left = (sub.rank() + sub.size() - 1) % sub.size();
            if sub.rank().is_multiple_of(2) {
                rank.send(&sub, right, 1, 512).await;
                rank.recv(&sub, left, 1, 512).await;
            } else {
                rank.recv(&sub, left, 1, 512).await;
                rank.send(&sub, right, 1, 512).await;
            }
            rank.allreduce(&sub, 1024).await;
            rank.comm_free(sub);
            rank.barrier(&world).await;
            rank
        })
    });
    assert!(stats.elapsed_ns() > 0.0);
}

#[test]
fn comm_dup_creates_independent_matching_space() {
    let stats = World::new(machine(), 2).run(|mut rank| {
        Box::pin(async move {
            let world = rank.comm_world();
            let dup = rank.comm_dup(&world).await;
            assert_ne!(dup.id, world.id);
            let peer = 1 - rank.rank();
            // Same tag on two communicators: messages must not cross.
            if rank.rank() == 0 {
                rank.send(&world, peer, 5, 100).await;
                rank.send(&dup, peer, 5, 200).await;
            } else {
                // Receive in the opposite order: dup first.
                let a = rank.recv(&dup, peer, 5, 4096).await;
                let b = rank.recv(&world, peer, 5, 4096).await;
                assert_eq!(a.bytes, 200);
                assert_eq!(b.bytes, 100);
            }
            rank
        })
    });
    assert!(stats.elapsed_ns() > 0.0);
}

#[test]
fn flavors_change_execution_time() {
    let run = |flavor: MpiFlavor| {
        World::new(Machine::new(platform_a(), flavor), 8).run(|mut rank| {
            Box::pin(async move {
                let comm = rank.comm_world();
                for _ in 0..20 {
                    rank.alltoall(&comm, 2048).await;
                    rank.allreduce(&comm, 64 * 1024).await;
                }
                rank
            })
        })
    };
    let t: Vec<f64> = MpiFlavor::ALL.iter().map(|f| run(*f).elapsed_ns()).collect();
    assert!(t[0] != t[1] && t[1] != t[2], "flavors indistinguishable: {t:?}");
}

#[test]
fn knl_platform_is_slower_for_compute_bound_work() {
    let program = |mut rank: Rank| -> RankFut<'static> {
        Box::pin(async move {
            let comm = rank.comm_world();
            rank.compute(&KernelDesc::stencil(2_000_000.0, 8.0, 4.0 * 1024.0 * 1024.0));
            rank.barrier(&comm).await;
            rank
        })
    };
    let ta = World::new(Machine::new(platform_a(), MpiFlavor::OpenMpi), 4)
        .run(program)
        .elapsed_ns();
    let tb = World::new(Machine::new(platform_b(), MpiFlavor::OpenMpi), 4)
        .run(program)
        .elapsed_ns();
    assert!(tb > 1.5 * ta, "KNL should be much slower: A={ta} B={tb}");
}

#[test]
fn single_node_platform_rejects_oversubscription() {
    let result = std::panic::catch_unwind(|| {
        World::new(Machine::new(platform_c(), MpiFlavor::OpenMpi), 64)
    });
    assert!(result.is_err());
    // 16 ranks fit fine.
    let stats = World::new(Machine::new(platform_c(), MpiFlavor::OpenMpi), 16)
        .run(|mut rank| {
            Box::pin(async move {
                let comm = rank.comm_world();
                rank.allreduce(&comm, 4096).await;
                rank
            })
        });
    assert!(stats.elapsed_ns() > 0.0);
}

/// Hook that counts calls and records per-call names.
struct CountingHook {
    pre_calls: AtomicU64,
    post_calls: AtomicU64,
    overhead: f64,
}

impl PmpiHook for CountingHook {
    fn pre(&self, _ctx: &HookCtx, _call: &MpiCall) {
        self.pre_calls.fetch_add(1, Ordering::Relaxed);
    }
    fn post(&self, ctx: &HookCtx, call: &MpiCall) {
        self.post_calls.fetch_add(1, Ordering::Relaxed);
        // Counters in the context are computation-only.
        assert!(ctx.counters.is_valid());
        let _ = call.func_name();
    }
    fn overhead_ns(&self) -> f64 {
        self.overhead
    }
}

#[test]
fn hook_sees_every_app_call_and_charges_overhead() {
    let hook = Arc::new(CountingHook {
        pre_calls: AtomicU64::new(0),
        post_calls: AtomicU64::new(0),
        overhead: 500.0,
    });
    let base = World::new(machine(), 4).run(ring_program);
    let hooked = World::new(machine(), 4)
        .with_hook(hook.clone())
        .run(ring_program);
    let pre = hook.pre_calls.load(Ordering::Relaxed);
    let post = hook.post_calls.load(Ordering::Relaxed);
    assert_eq!(pre, post);
    // 4 ranks × 3 calls each (send+recv+barrier).
    assert_eq!(pre, 12);
    // Overhead slows the run but only slightly.
    assert!(hooked.elapsed_ns() > base.elapsed_ns());
    let rel = (hooked.elapsed_ns() - base.elapsed_ns()) / base.elapsed_ns();
    assert!(rel < 0.30, "tracing overhead too large: {rel}");
}

#[test]
fn hook_is_not_called_for_collective_plumbing() {
    let hook = Arc::new(CountingHook {
        pre_calls: AtomicU64::new(0),
        post_calls: AtomicU64::new(0),
        overhead: 0.0,
    });
    World::new(machine(), 8).with_hook(hook.clone()).run(|mut rank| {
        Box::pin(async move {
            let comm = rank.comm_world();
            rank.allreduce(&comm, 1 << 20).await; // many internal messages
            rank
        })
    });
    // Exactly one call per rank, regardless of internal rounds.
    assert_eq!(hook.pre_calls.load(Ordering::Relaxed), 8);
}

/// A hook whose ranks each count their own calls, and whose shared path
/// panics: a call records only through the rank's own share.
struct OwnCounts {
    counts: Vec<AtomicU64>,
}

struct RankCount {
    home: Arc<OwnCounts>,
    rank: usize,
    calls: u64,
}

impl PmpiHook for OwnCounts {
    fn post(&self, _ctx: &HookCtx, call: &MpiCall) {
        panic!("{} took the shared path", call.func_name());
    }

    fn for_rank(self: Arc<Self>, rank: usize) -> Option<Box<dyn RankHook>> {
        Some(Box::new(RankCount { home: self, rank, calls: 0 }))
    }
}

impl RankHook for RankCount {
    fn post(&mut self, ctx: &HookCtx, _call: &MpiCall) {
        assert_eq!(ctx.rank, self.rank);
        self.calls += 1;
    }

    fn finish(self: Box<Self>) {
        self.home.counts[self.rank].store(self.calls, Ordering::Relaxed);
    }
}

#[test]
fn observed_run_records_through_each_ranks_own_hook() {
    let run = |observe: Observe| {
        let hook = Arc::new(OwnCounts { counts: (0..8).map(|_| AtomicU64::new(0)).collect() });
        let stats =
            World::new(machine(), 8).with_hook(hook.clone()).observe(observe).run(ring_program);
        let counts: Vec<u64> = hook.counts.iter().map(|c| c.load(Ordering::Relaxed)).collect();
        (counts, stats)
    };
    let (plain, plain_stats) = run(Observe::default());
    let (observed, stats) = run(Observe { comm_matrix: true, sim_profile: true });
    // 3 calls per rank (send, recv, barrier).
    assert_eq!(plain, vec![3; 8]);
    assert_eq!(observed, plain);
    assert_eq!(stats.schedule_hash(), plain_stats.schedule_hash());
    // The collectors saw every call too.
    assert_eq!(stats.sim_profile.expect("profiled").snapshot().events_total(), 24);
    let matrix = stats.comm_matrix.expect("tallied").snapshot();
    assert_eq!((matrix.count(0, 1), matrix.byte_volume(7, 0)), (1, 4096));
}

#[test]
fn compute_accumulates_counters_not_mpi() {
    let stats = World::new(machine(), 2).run(|mut rank| {
        Box::pin(async move {
            let comm = rank.comm_world();
            rank.compute(&KernelDesc::stencil(10_000.0, 4.0, 65536.0));
            rank.allreduce(&comm, 1 << 16).await;
            rank.compute(&KernelDesc::stencil(10_000.0, 4.0, 65536.0));
            rank
        })
    });
    for r in &stats.per_rank {
        assert_eq!(r.compute_events, 2);
        // Counter totals reflect two stencils, nothing from the allreduce.
        let one = machine().platform.cpu.counters(&KernelDesc::stencil(10_000.0, 4.0, 65536.0));
        let rel = (r.counters.ins - 2.0 * one.ins).abs() / (2.0 * one.ins);
        assert!(rel < 0.05, "INS off by {rel}");
        assert!(r.mpi_ns > 0.0 && r.compute_ns > 0.0);
    }
}

#[test]
fn request_ids_are_recycled_like_real_handles() {
    World::new(machine(), 2).run(|mut rank| {
        Box::pin(async move {
            let comm = rank.comm_world();
            let peer = 1 - rank.rank();
            for _ in 0..5 {
                let r = if rank.rank() == 0 {
                    rank.isend(&comm, peer, 0, 64)
                } else {
                    rank.irecv(&comm, peer, 0, 64)
                };
                // Always slot 0: freed and reallocated each iteration.
                assert_eq!(r.0, 0);
                rank.wait(r).await;
            }
            assert_eq!(rank.outstanding_requests(), 0);
            rank
        })
    });
}

#[test]
fn test_polls_until_complete() {
    // Deterministic, sleep-free: rank 0 cannot send its payload before it
    // receives the go-message, and rank 1 only sends the go-message after
    // one guaranteed-unsuccessful poll. Each failed `test` yields to the
    // scheduler instead of sleeping real time.
    World::new(machine(), 2).run(|mut rank| {
        Box::pin(async move {
            let comm = rank.comm_world();
            if rank.rank() == 0 {
                rank.recv(&comm, 1, 9, 8).await; // the "go" message
                rank.send(&comm, 1, 0, 128).await;
            } else {
                let r = rank.irecv(&comm, 0, 0, 128);
                let mut polls = 0;
                assert!(rank.test(r).await.is_none(), "payload cannot be here yet");
                polls += 1;
                rank.send(&comm, 0, 9, 8).await; // release rank 0
                let status = loop {
                    if let Some(st) = rank.test(r).await {
                        break st;
                    }
                    polls += 1;
                };
                assert_eq!(status.bytes, 128);
                assert!(polls > 0, "expected at least one unsuccessful poll");
            }
            rank
        })
    });
}

#[test]
fn larger_worlds_make_collectives_slower() {
    let time = |p: usize| {
        World::new(machine(), p)
            .run(|mut rank| {
                Box::pin(async move {
                    let comm = rank.comm_world();
                    for _ in 0..10 {
                        rank.allreduce(&comm, 8192).await;
                    }
                    rank
                })
            })
            .elapsed_ns()
    };
    let t8 = time(8);
    let t64 = time(64);
    assert!(t64 > t8, "allreduce over 64 ranks not slower than 8: {t64} vs {t8}");
}

#[test]
fn scan_completes_and_costs_grow_with_payload() {
    let run = |bytes: usize| {
        World::new(machine(), 8).run(move |mut rank| {
            Box::pin(async move {
                let comm = rank.comm_world();
                for _ in 0..10 {
                    rank.scan(&comm, bytes).await;
                }
                rank
            })
        })
    };
    let small = run(64);
    let large = run(1 << 20);
    assert!(small.elapsed_ns() > 0.0);
    assert!(large.elapsed_ns() > small.elapsed_ns());
    // Later ranks wait on the prefix chain: rank p−1 cannot finish before
    // rank 0's round-one contribution is available.
    assert!(small.per_rank[7].finish_ns >= small.per_rank[0].finish_ns);
}

#[test]
fn gatherv_handles_asymmetric_counts() {
    let stats = World::new(machine(), 6).run(|mut rank| {
        Box::pin(async move {
            let comm = rank.comm_world();
            // Wildly different contributions, including zero.
            let counts = vec![0usize, 100, 50_000, 7, 1 << 20, 64];
            rank.gatherv(&comm, 2, &counts).await;
            rank.scatterv(&comm, 2, &counts).await;
            rank.barrier(&comm).await;
            rank
        })
    });
    assert!(stats.elapsed_ns() > 0.0);
    // SPMD symmetry of call counts.
    let c0 = stats.per_rank[0].app_calls;
    assert!(stats.per_rank.iter().all(|r| r.app_calls == c0));
}

#[test]
fn reduce_scatter_block_costs_like_the_ring_phase() {
    // The ring reduce-scatter moves (p−1)·bytes_per_rank per rank — more
    // data ⇒ more time, and it must beat a full allreduce of p·bytes.
    let p = 8;
    let bytes_per_rank = 1 << 16;
    let rs = World::new(machine(), p).run(move |mut rank| {
        Box::pin(async move {
            let comm = rank.comm_world();
            rank.reduce_scatter_block(&comm, bytes_per_rank).await;
            rank
        })
    });
    let ar = World::new(machine(), p).run(move |mut rank| {
        Box::pin(async move {
            let comm = rank.comm_world();
            rank.allreduce(&comm, bytes_per_rank * p).await;
            rank
        })
    });
    assert!(rs.elapsed_ns() > 0.0);
    assert!(
        rs.elapsed_ns() < ar.elapsed_ns(),
        "reduce_scatter {} not cheaper than allreduce {}",
        rs.elapsed_ns(),
        ar.elapsed_ns()
    );
}

#[test]
fn extended_collectives_are_hooked_once_each() {
    let hook = Arc::new(CountingHook {
        pre_calls: AtomicU64::new(0),
        post_calls: AtomicU64::new(0),
        overhead: 0.0,
    });
    World::new(machine(), 4).with_hook(hook.clone()).run(|mut rank| {
        Box::pin(async move {
            let comm = rank.comm_world();
            rank.scan(&comm, 1024).await;
            rank.reduce_scatter_block(&comm, 1024).await;
            rank.gatherv(&comm, 0, &[8, 16, 24, 32]).await;
            rank.scatterv(&comm, 1, &[8, 16, 24, 32]).await;
            rank
        })
    });
    // 4 ranks × 4 calls, regardless of internal plumbing rounds.
    assert_eq!(hook.pre_calls.load(Ordering::Relaxed), 16);
}

#[test]
fn paper_scale_worlds_run() {
    // The paper's largest configuration is 529 ranks (SP). A rank state
    // machine must schedule, synchronize, and tear down cleanly at that
    // scale.
    let stats = World::new(machine(), 529).run(|mut rank| {
        Box::pin(async move {
            let comm = rank.comm_world();
            rank.compute(&KernelDesc::stencil(2_000.0, 4.0, 65536.0));
            rank.allreduce(&comm, 1024).await;
            rank.barrier(&comm).await;
            rank
        })
    });
    assert_eq!(stats.per_rank.len(), 529);
    assert!(stats.elapsed_ns() > 0.0);
    let calls = stats.per_rank[0].app_calls;
    assert!(stats.per_rank.iter().all(|r| r.app_calls == calls));
}

#[test]
fn deadlock_is_reported_with_blocked_ranks() {
    // Rank 0 receives from rank 1, which never sends: the event scheduler
    // must go quiescent and name the blocked rank instead of hanging.
    let err = World::new(machine(), 2)
        .try_run(|mut rank| {
            Box::pin(async move {
                let comm = rank.comm_world();
                if rank.rank() == 0 {
                    rank.recv(&comm, 1, 0, 64).await;
                }
                rank
            })
        })
        .unwrap_err();
    assert_eq!(err.ranks.len(), 1);
    assert_eq!(err.ranks[0].0, 0);
    assert!(err.ranks[0].1.contains("rank 1"), "diagnosis: {}", err.ranks[0].1);
    let shown = format!("{err}");
    assert!(shown.contains("deadlock"), "{shown}");
}

#[test]
fn wtime_is_monotone_within_a_rank() {
    World::new(machine(), 4).run(|mut rank| {
        Box::pin(async move {
            let comm = rank.comm_world();
            let mut last = rank.wtime();
            for i in 0..20 {
                match i % 4 {
                    0 => rank.compute(&KernelDesc::bookkeeping(5_000.0)),
                    1 => rank.allreduce(&comm, 256).await,
                    2 => {
                        let p = rank.nranks();
                        let right = (rank.rank() + 1) % p;
                        let left = (rank.rank() + p - 1) % p;
                        rank.sendrecv(&comm, right, 5, 2048, left, 5, 2048).await;
                    }
                    _ => rank.barrier(&comm).await,
                }
                let now = rank.wtime();
                assert!(now >= last, "clock went backwards: {now} < {last}");
                last = now;
            }
            rank
        })
    });
}
