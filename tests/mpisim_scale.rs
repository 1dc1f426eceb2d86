//! Scale smoke tests for the event-driven simulator: worlds far past the
//! paper's 529-rank ceiling, on the capacity-unbounded platform B.
//!
//! Tier-1 (always on, debug-friendly sizes):
//!
//! * a 4096-rank halo exchange completes inside a wall-clock budget and
//!   stays SPMD-uniform and deterministic across pool widths;
//! * a 1024-rank synthesis drives the log₂P = 10-deep table-merge tree
//!   and the LCS main-rule merge at a depth the threaded engine could
//!   never reach.
//!
//! Full-scale sweeps run only when `SIESTA_SCALE_TESTS=1` (the dedicated
//! release-build CI job sets it; a debug `cargo test -q` skips them):
//!
//! * 65 536 ranks, byte-identical across pool widths 1/2/8, under 60 s
//!   wall and 2 GB peak RSS (the ISSUE 8 acceptance numbers);
//! * a 65 536-rank halo synthesis whose proxy's wire bytes are identical
//!   at pool widths 1 and 8: the 16-round table merge, the per-rank remap
//!   composition, the grammar lift and the grammar merge at scale;
//! * 2²⁰ = 1 048 576 ranks to completion — one small heap future per
//!   rank, not one OS thread;
//! * 2²⁰ ranks through the *streaming trace path*: online Sequitur ingest
//!   plus the 20-round table merge and grammar lift, with no rank's full
//!   id sequence ever materialized.

use std::sync::Arc;
use std::time::{Duration, Instant};

use siesta_core::{Siesta, SiestaConfig};
use siesta_mpisim::{CommId, HookCtx, MpiCall, PmpiHook, World};
use siesta_perfmodel::{platform_b, CounterVec, Machine, MpiFlavor};
use siesta_trace::{merge_streamed, Recorder, TraceConfig};
use siesta_workloads::halo::halo2d_body;

fn machine() -> Machine {
    Machine::new(platform_b(), MpiFlavor::OpenMpi)
}

fn scale_tests_enabled() -> bool {
    std::env::var("SIESTA_SCALE_TESTS").is_ok_and(|v| v == "1")
}

/// Wall-clock guard: generous enough for a loaded debug CI runner, tight
/// enough that an accidental O(ranks²) scheduler regression still trips.
fn assert_within(budget: Duration, took: Duration, what: &str) {
    assert!(
        took <= budget,
        "{what} took {:.1}s, budget {:.1}s",
        took.as_secs_f64(),
        budget.as_secs_f64()
    );
}

#[test]
fn halo_4096_ranks_within_budget() {
    let t0 = Instant::now();
    let stats = World::new(machine(), 4096).run(halo2d_body(5, 4096));
    let took = t0.elapsed();
    assert_eq!(stats.per_rank.len(), 4096);
    assert!(stats.elapsed_ns() > 0.0);
    // Fully SPMD on a 64×64 grid: every rank makes the same calls.
    let c0 = stats.per_rank[0].app_calls;
    assert!(stats.per_rank.iter().all(|r| r.app_calls == c0));
    assert_within(Duration::from_secs(60), took, "4096-rank halo (debug)");

    // Pool width moves wall time, never an output bit.
    let narrow = siesta_par::with_threads(1, || {
        World::new(machine(), 4096).run(halo2d_body(5, 4096))
    });
    assert_eq!(narrow.schedule_hash(), stats.schedule_hash());
    assert_eq!(narrow.elapsed_ns(), stats.elapsed_ns());
}

#[test]
fn synthesize_1024_ranks_exercises_merge_depth() {
    // 1024 ranks ⇒ 10 table-merge rounds and a main-rule merge over 1024
    // per-rank grammars — the log₂P structures the paper stops at depth
    // ~9 (529 ranks) on.
    let t0 = Instant::now();
    let siesta = Siesta::new(SiestaConfig::default());
    let (synthesis, traced) = siesta.synthesize_run(machine(), 1024, halo2d_body(3, 2048));
    let took = t0.elapsed();
    assert_eq!(traced.per_rank.len(), 1024);
    assert_eq!(synthesis.program.nranks, 1024);
    assert!(synthesis.program.grammar_size() > 0);
    // Interior symmetry collapses the mains: far fewer than one per rank.
    assert!(
        synthesis.program.mains.len() < 64,
        "{} mains for 1024 SPMD ranks — LCS merge regressed",
        synthesis.program.mains.len()
    );
    assert_within(Duration::from_secs(120), took, "1024-rank synthesis (debug)");
}

#[test]
fn halo_65536_ranks_byte_identical_and_bounded() {
    if !scale_tests_enabled() {
        eprintln!("skipped: set SIESTA_SCALE_TESTS=1 (release build) to run the 64k-rank sweep");
        return;
    }
    let rss_at_entry = siesta_obs::peak_rss_bytes();
    let t0 = Instant::now();
    let mut runs = Vec::new();
    for width in [1usize, 2, 8] {
        let stats = siesta_par::with_threads(width, || {
            World::new(machine(), 65_536).run(halo2d_body(10, 4096))
        });
        // The full per-rank schedule, bit for bit: virtual finish times
        // and the rolling per-call completion-clock hashes.
        let fingerprint: Vec<(u64, u64)> = stats
            .per_rank
            .iter()
            .map(|r| (r.finish_ns.to_bits(), r.sched_hash))
            .collect();
        runs.push((width, stats.schedule_hash(), stats.elapsed_ns().to_bits(), fingerprint));
    }
    let took = t0.elapsed();
    let (_, hash0, elapsed0, ref fp0) = runs[0];
    for (width, hash, elapsed, fp) in &runs[1..] {
        assert_eq!(*hash, hash0, "schedule hash diverges at {width} threads");
        assert_eq!(*elapsed, elapsed0, "virtual time diverges at {width} threads");
        assert_eq!(fp, fp0, "per-rank schedules diverge at {width} threads");
    }
    // Acceptance: < 60 s wall for one run; three widths get 3× that.
    assert_within(Duration::from_secs(180), took, "65 536-rank halo × 3 widths");
    // < 2 GB peak RSS — skipped if another test in this process already
    // pushed the (monotonic) high-water mark past half the budget.
    if let (Some(before), Some(after)) = (rss_at_entry, siesta_obs::peak_rss_bytes()) {
        const GB: u64 = 1 << 30;
        if before < GB {
            assert!(
                after < 2 * GB,
                "peak RSS {:.2} GB exceeds the 2 GB budget",
                after as f64 / GB as f64
            );
        } else {
            eprintln!("peak-RSS gate skipped: high-water mark already {before} B at entry");
        }
    }
}

#[test]
fn synthesize_65536_ranks_byte_identical_across_widths() {
    if !scale_tests_enabled() {
        eprintln!("skipped: set SIESTA_SCALE_TESTS=1 (release build) to run the 64k-rank synthesis");
        return;
    }
    // The back half composes every rank's remap after the merge tree and
    // fans that out over ranks; width may move wall time, never a byte.
    let t0 = Instant::now();
    let wire = |width: usize| {
        siesta_par::with_threads(width, || {
            let siesta = Siesta::new(SiestaConfig::default());
            let (synthesis, _) = siesta.synthesize_run(machine(), 65_536, halo2d_body(3, 4096));
            assert_eq!(synthesis.stats.merge_rounds, 16);
            siesta_codegen::to_bytes(&synthesis.program)
        })
    };
    let narrow = wire(1);
    assert!(wire(8) == narrow, "65 536-rank proxy differs between widths 1 and 8");
    assert_within(Duration::from_secs(300), t0.elapsed(), "65 536-rank synthesis × 2 widths");
}

#[test]
fn halo_million_ranks_completes() {
    if !scale_tests_enabled() {
        eprintln!("skipped: set SIESTA_SCALE_TESTS=1 (release build) to run the 2^20-rank sweep");
        return;
    }
    const RANKS: usize = 1 << 20;
    let t0 = Instant::now();
    let stats = World::new(machine(), RANKS).run(halo2d_body(2, 1024));
    let took = t0.elapsed();
    assert_eq!(stats.per_rank.len(), RANKS);
    assert!(stats.elapsed_ns() > 0.0);
    let c0 = stats.per_rank[0].app_calls;
    assert!(stats.per_rank.iter().all(|r| r.app_calls == c0));
    assert_ne!(stats.schedule_hash(), 0);
    eprintln!(
        "2^20 ranks: {:.1}s wall, {:.0} ranks/s, peak RSS {:?}",
        took.as_secs_f64(),
        RANKS as f64 / took.as_secs_f64(),
        siesta_obs::peak_rss_bytes()
    );
    assert_within(Duration::from_secs(420), took, "2^20-rank halo");
}

#[test]
fn streaming_ingest_million_ranks_completes() {
    if !scale_tests_enabled() {
        eprintln!(
            "skipped: set SIESTA_SCALE_TESTS=1 (release build) to run the 2^20-rank streaming ingest"
        );
        return;
    }
    // Drive the PMPI recorder directly with a 2^20-rank halo-shaped call
    // stream — the same shape as `benches/trace_ingest.rs`, two orders of
    // magnitude past the bench's 64k gate. Every rank's ids feed its
    // online Sequitur through a 256-id buffer; the ~59M-event job never
    // holds a flat id sequence, and the merge lifts the per-rank grammars
    // through log₂(2²⁰) = 20 reduction rounds without expanding them.
    const RANKS: usize = 1 << 20;
    const ITERS: usize = 8;
    let t0 = Instant::now();
    let config = TraceConfig { stream_buf: 256, ..TraceConfig::default() };
    let rec = Arc::new(Recorder::new_streaming(RANKS, config));
    let step = CounterVec::from_array([5_000.0, 120.0, 30.0, 65_536.0, 400.0, 12.0]);
    for me in 0..RANKS {
        let right = (me + 1) % RANKS;
        let left = (me + RANKS - 1) % RANKS;
        let mut counters = CounterVec::default();
        let mut call_seq = 0u32;
        let mut post = |counters: CounterVec, call: &MpiCall| {
            let ctx = HookCtx {
                rank: me,
                clock_ns: 0.0,
                counters,
                comm_rank: me,
                comm_size: RANKS,
                call_start_ns: 0.0,
                wait_ns: 0.0,
                call_seq,
            };
            call_seq += 1;
            rec.post(&ctx, call);
        };
        for _ in 0..ITERS {
            counters += step;
            post(counters, &MpiCall::Isend { comm: CommId::WORLD, dest: right, tag: 7, bytes: 4096, req: 1 });
            post(counters, &MpiCall::Isend { comm: CommId::WORLD, dest: left, tag: 7, bytes: 4096, req: 2 });
            post(counters, &MpiCall::Irecv { comm: CommId::WORLD, src: left, tag: 7, bytes: 4096, req: 3 });
            post(counters, &MpiCall::Irecv { comm: CommId::WORLD, src: right, tag: 7, bytes: 4096, req: 4 });
            post(counters, &MpiCall::Waitall { reqs: vec![1, 2, 3, 4] });
            post(counters, &MpiCall::Allreduce { comm: CommId::WORLD, bytes: 8 });
        }
    }
    let st = rec.finish_streamed();
    assert_eq!(st.nranks, RANKS);
    assert_eq!(st.total_events(), RANKS * ITERS * 7);
    let ingest = t0.elapsed();

    let sg = merge_streamed(st);
    let took = t0.elapsed();
    assert_eq!(sg.nranks, RANKS);
    assert_eq!(sg.merge_rounds, 20);
    assert!(!sg.table.is_empty());
    assert_eq!(sg.grammars.len(), RANKS);
    // Spot-expand a handful of ranks: each grammar must reproduce exactly
    // one rank's worth of events over valid global ids.
    for rank in [0usize, 1, RANKS / 2, RANKS - 1] {
        let seq = sg.expand_rank(rank);
        assert_eq!(seq.len(), ITERS * 7, "rank {rank} expansion length");
        assert!(seq.iter().all(|&id| (id as usize) < sg.table.len()));
    }
    eprintln!(
        "2^20-rank streaming ingest: {:.1}s ingest, {:.1}s total, peak RSS {:?}",
        ingest.as_secs_f64(),
        took.as_secs_f64(),
        siesta_obs::peak_rss_bytes()
    );
    assert_within(Duration::from_secs(600), took, "2^20-rank streaming ingest + merge");
}
