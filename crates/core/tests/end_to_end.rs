//! End-to-end pipeline tests: trace → synthesize → replay, on the real
//! workload skeletons.

use siesta_codegen::{emit_c, replay, TerminalOp};
use siesta_core::{Siesta, SiestaConfig};
use siesta_mpisim::RunStats;
use siesta_perfmodel::{platform_a, platform_b, Machine, MpiFlavor};
use siesta_trace::{CommEvent, LocalEvent};
use siesta_workloads::{ProblemSize, Program};

fn machine() -> Machine {
    Machine::new(platform_a(), MpiFlavor::OpenMpi)
}

fn full_run_sized(
    program: Program,
    nprocs: usize,
    size: ProblemSize,
) -> (siesta_core::Synthesis, RunStats, RunStats) {
    let m = machine();
    let original = program.run(m, nprocs, size);
    let siesta = Siesta::new(SiestaConfig::default());
    let (synthesis, traced) = siesta.synthesize_run(m, nprocs, program.body(size));
    (synthesis, original, traced)
}

fn full_run(program: Program, nprocs: usize) -> (siesta_core::Synthesis, RunStats, RunStats) {
    full_run_sized(program, nprocs, ProblemSize::Tiny)
}

#[test]
fn communication_is_reproduced_losslessly() {
    // The headline claim: every rank's proxy-side comm-event sequence is
    // exactly the traced sequence. We verify structurally: expanding the
    // proxy grammar per rank and filtering comm terminals reproduces the
    // global-id comm stream of the trace.
    let m = machine();
    for program in [Program::Bt, Program::Cg, Program::Sedov] {
        let nprocs = if program == Program::Bt { 9 } else { 8 };
        let siesta = Siesta::new(SiestaConfig::default());
        let (trace, _) = siesta.trace_run(m, nprocs, program.body(ProblemSize::Tiny));
        let global = siesta_trace::merge_tables(trace);
        let synthesis = {
            // Re-trace (merge_tables consumed the trace) — determinism
            // makes the second trace identical.
            let (trace2, _) = siesta.trace_run(m, nprocs, program.body(ProblemSize::Tiny));
            siesta.synthesize(trace2, &m)
        };
        for rank in 0..nprocs as u32 {
            let expanded = synthesis.program.expand_for_rank(rank);
            assert_eq!(
                expanded, global.seqs[rank as usize],
                "{} rank {rank}: proxy expansion diverges from trace",
                program.name()
            );
        }
    }
}

#[test]
fn proxy_time_approximates_original() {
    // Figure 6's shape: Siesta's proxy execution time lands near the
    // original program's.
    for (program, nprocs) in [(Program::Bt, 9), (Program::Mg, 8), (Program::Sweep3d, 8)] {
        let (synthesis, original, _) = full_run(program, nprocs);
        let proxy = replay(&synthesis.program, machine());
        let err = proxy.time_error(&original);
        assert!(
            err < 0.20,
            "{}: proxy time error {:.1}% (proxy {:.2}ms vs orig {:.2}ms)",
            program.name(),
            err * 100.0,
            proxy.elapsed_ms(),
            original.elapsed_ms()
        );
    }
}

#[test]
fn proxy_counters_approximate_original() {
    // Table 3's "Error" column: mean relative counter error across metrics
    // and processes stays single-digit percent. Small problem size: at Tiny
    // scale some metrics have two-digit absolute counts, where relative
    // error is measurement-noise-dominated (real D-class events count in
    // the millions).
    for (program, nprocs) in [(Program::Cg, 8), (Program::Sod, 8)] {
        let (synthesis, original, _) = full_run_sized(program, nprocs, ProblemSize::Small);
        let proxy = replay(&synthesis.program, machine());
        let err = proxy.mean_counter_error(&original);
        assert!(
            err < 0.15,
            "{}: counter error {:.2}%",
            program.name(),
            err * 100.0
        );
    }
}

#[test]
fn scaled_proxy_runs_faster_and_reproduces_time() {
    let m = machine();
    let program = Program::Sp;
    let nprocs = 9;
    let original = program.run(m, nprocs, ProblemSize::Tiny);
    let siesta = Siesta::new(SiestaConfig::scaled());
    let (synthesis, _) = siesta.synthesize_run(m, nprocs, program.body(ProblemSize::Tiny));
    let proxy = replay(&synthesis.program, m);
    // The shrunk proxy is much faster than the original...
    assert!(
        proxy.elapsed_ns() < 0.5 * original.elapsed_ns(),
        "scaled proxy {:.2}ms not much faster than original {:.2}ms",
        proxy.elapsed_ms(),
        original.elapsed_ms()
    );
    // ...and multiplying back by the factor reproduces the original time
    // (more loosely than the unscaled proxy — Fig 6 shows the same gap).
    let reproduced = proxy.elapsed_ns() * synthesis.program.scale;
    let err = (reproduced - original.elapsed_ns()).abs() / original.elapsed_ns();
    assert!(err < 0.45, "scaled reproduction error {:.1}%", err * 100.0);
}

#[test]
fn compression_beats_raw_trace_by_orders_of_magnitude() {
    // Small size: enough iterations for the grammar to amortize the fixed
    // costs (block source, tables) — Table 3 ratios are 100–5000×.
    let (synthesis, _, _) = full_run_sized(Program::Sweep3d, 8, ProblemSize::Small);
    let ratio = synthesis.stats.compression_ratio();
    assert!(
        ratio > 50.0,
        "compression ratio only {ratio:.1}× (raw {} vs size_C {})",
        synthesis.stats.raw_trace_bytes,
        synthesis.stats.size_c_bytes
    );
}

#[test]
fn synthesis_is_deterministic() {
    let (a, _, _) = full_run(Program::Is, 8);
    let (b, _, _) = full_run(Program::Is, 8);
    assert_eq!(a.program, b.program);
    assert_eq!(a.stats.size_c_bytes, b.stats.size_c_bytes);
}

#[test]
fn emitted_c_covers_the_programs_mpi_surface() {
    // Small size so Sedov reaches its regrid (comm_split) phase.
    let (synthesis, _, _) = full_run_sized(Program::Sedov, 8, ProblemSize::Small);
    let c = emit_c(&synthesis.program);
    for needle in [
        "MPI_Isend",
        "MPI_Irecv",
        "MPI_Waitall",
        "MPI_Allreduce",
        "MPI_Comm_dup",
        "MPI_Comm_split",
        "MPI_Comm_free",
        "MPI_Gather",
        "BLOCK",
        "int main(int argc, char **argv)",
    ] {
        assert!(c.contains(needle), "generated C lacks {needle}");
    }
    let open = c.matches('{').count();
    assert_eq!(open, c.matches('}').count());
}

#[test]
fn proxy_replay_is_deterministic() {
    let (synthesis, _, _) = full_run(Program::Mg, 8);
    let a = replay(&synthesis.program, machine());
    let b = replay(&synthesis.program, machine());
    assert_eq!(a.elapsed_ns(), b.elapsed_ns());
}

#[test]
fn proxy_ports_to_other_platforms() {
    // Figure 9's mechanism: generate on A, replay on B. The proxy's time
    // must move in the same direction and rough magnitude as the original.
    let program = Program::Cg;
    let nprocs = 8;
    let ma = machine();
    let mb = Machine::new(platform_b(), MpiFlavor::OpenMpi);
    let orig_a = program.run(ma, nprocs, ProblemSize::Tiny);
    let orig_b = program.run(mb, nprocs, ProblemSize::Tiny);
    let siesta = Siesta::new(SiestaConfig::default());
    let (synthesis, _) = siesta.synthesize_run(ma, nprocs, program.body(ProblemSize::Tiny));
    let proxy_b = replay(&synthesis.program, mb);
    let orig_slowdown = orig_b.elapsed_ns() / orig_a.elapsed_ns();
    assert!(orig_slowdown > 1.3, "expected B slower: {orig_slowdown}");
    let err = proxy_b.time_error(&orig_b);
    assert!(
        err < 0.35,
        "cross-platform proxy error {:.1}% (proxy {:.2}ms vs orig-B {:.2}ms)",
        err * 100.0,
        proxy_b.elapsed_ms(),
        orig_b.elapsed_ms()
    );
}

#[test]
fn proxy_tracks_mpi_implementation_changes() {
    // Figure 7's mechanism: generate under openmpi, replay under all three
    // implementations; lossless comm lets the proxy follow each.
    let program = Program::Mg;
    let nprocs = 8;
    let siesta = Siesta::new(SiestaConfig::default());
    let (synthesis, _) =
        siesta.synthesize_run(machine(), nprocs, program.body(ProblemSize::Tiny));
    for flavor in MpiFlavor::ALL {
        let m = Machine::new(platform_a(), flavor);
        let orig = program.run(m, nprocs, ProblemSize::Tiny);
        let proxy = replay(&synthesis.program, m);
        let err = proxy.time_error(&orig);
        assert!(
            err < 0.25,
            "{}: error {:.1}%",
            flavor.name(),
            err * 100.0
        );
    }
}

#[test]
fn stats_count_the_right_things() {
    let (synthesis, _, _) = full_run(Program::Is, 8);
    let s = &synthesis.stats;
    assert_eq!(s.num_terminals, s.num_comm_terminals + s.num_compute_terminals);
    assert!(s.num_comm_terminals > 0);
    assert!(s.num_compute_terminals > 0);
    assert_eq!(s.merge_rounds, 3); // log2(8)
    assert!(s.mean_fit_error >= 0.0);
    assert!(s.num_mains >= 1);
    // The program's terminal table must contain the alltoallv events IS is
    // known for.
    let has_alltoallv = synthesis.program.terminals.iter().any(|t| {
        matches!(t, TerminalOp::Comm(CommEvent::Alltoallv { .. }))
    });
    assert!(has_alltoallv);
    // And the trace-side record types match.
    let m = machine();
    let siesta = Siesta::new(SiestaConfig::default());
    let (trace, _) = siesta.trace_run(m, 8, Program::Is.body(ProblemSize::Tiny));
    let any_compute = trace.ranks[0].table.iter().any(|e| matches!(e, LocalEvent::Compute(_)));
    assert!(any_compute);
}

#[test]
fn fully_spmd_proxies_retarget_to_new_scales() {
    // Trace a scale-free SPMD ring+collective program at 8 ranks, retarget
    // its proxy to 16, and compare against the original *run at 16* (weak
    // scaling: per-rank work is fixed).
    use siesta_codegen::retarget;
    use siesta_perfmodel::KernelDesc;
    fn ring(mut rank: siesta_mpisim::Rank) -> siesta_mpisim::RankFut<'static> {
        Box::pin(async move {
            let comm = rank.comm_world();
            let p = rank.nranks();
            for _ in 0..25 {
                rank.compute(&KernelDesc::stencil(30_000.0, 5.0, 1e6));
                let right = (rank.rank() + 1) % p;
                let left = (rank.rank() + p - 1) % p;
                rank.sendrecv(&comm, right, 3, 8192, left, 3, 8192).await;
                rank.allreduce(&comm, 16).await;
            }
            rank
        })
    }
    let m = machine();
    let siesta = Siesta::new(SiestaConfig::default());
    let (synthesis, _) = siesta.synthesize_run(m, 8, ring);
    let p16 = retarget(&synthesis.program, 16).expect("ring program is scale-free");
    let original16 = siesta_mpisim::World::new(m, 16).run(ring);
    let proxy16 = replay(&p16, m);
    let err = proxy16.time_error(&original16);
    assert!(
        err < 0.15,
        "retargeted proxy error {:.1}% (proxy {:.2}ms vs orig {:.2}ms)",
        err * 100.0,
        proxy16.elapsed_ms(),
        original16.elapsed_ms()
    );
    // Workload programs with boundary branches are correctly refused.
    let (bt, _) = siesta.synthesize_run(m, 9, Program::Bt.body(ProblemSize::Tiny));
    assert!(retarget(&bt.program, 16).is_err(), "BT is not fully SPMD");
}

#[test]
fn retargeted_ring_makes_the_calls_of_the_ring_run_at_the_new_scale() {
    // A rank-uniform ring: each step computes, trades a face with both
    // neighbors and closes with an allreduce, the same at every rank. Its
    // proxy, synthesized at 8 ranks and retargeted to 16, must make at
    // each rank the MPI calls and send the bytes that the ring itself
    // makes when run at 16 ranks.
    use siesta_codegen::retarget;
    use siesta_perfmodel::KernelDesc;
    fn ring(mut rank: siesta_mpisim::Rank) -> siesta_mpisim::RankFut<'static> {
        Box::pin(async move {
            let comm = rank.comm_world();
            let p = rank.nranks();
            let right = (rank.rank() + 1) % p;
            let left = (rank.rank() + p - 1) % p;
            for _ in 0..12 {
                rank.compute(&KernelDesc::stencil(20_000.0, 5.0, 1e6));
                rank.sendrecv(&comm, right, 5, 4096, left, 5, 4096).await;
                rank.sendrecv(&comm, left, 6, 2048, right, 6, 2048).await;
                rank.allreduce(&comm, 8).await;
            }
            rank
        })
    }
    let m = machine();
    let (synthesis, _) = Siesta::new(SiestaConfig::default()).synthesize_run(m, 8, ring);
    let p16 = retarget(&synthesis.program, 16).expect("a rank-uniform ring is scale-free");
    assert_eq!(p16.nranks, 16);
    let proxy = replay(&p16, m);
    let original = siesta_mpisim::World::new(m, 16).run(ring);
    assert_eq!(proxy.per_rank.len(), 16);
    for (p, o) in proxy.per_rank.iter().zip(&original.per_rank) {
        assert_eq!(o.app_calls, 12 * 3);
        assert_eq!((p.app_calls, p.bytes_sent), (o.app_calls, o.bytes_sent), "rank {}", o.rank);
    }
}
