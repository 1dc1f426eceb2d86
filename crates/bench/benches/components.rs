//! Micro-benchmarks of the pipeline's algorithmic components.
//!
//! Hand-rolled harness (no external benchmark crate: the build environment
//! has no registry access). Each benchmark warms up, then reports the mean
//! and minimum wall time over a fixed number of timed iterations:
//!
//! ```sh
//! cargo bench -p siesta-bench --bench components
//! ```

use std::hint::black_box;
use std::time::Instant;

use siesta_core::{Siesta, SiestaConfig};
use siesta_grammar::{lcs, merge_grammars, MergeConfig, Sequitur};
use siesta_perfmodel::{platform_a, KernelDesc, Machine, MpiFlavor};
use siesta_proxy::{solve_block_fit, ProxySearcher};
use siesta_trace::{merge_rank_tables, merge_streamed, Recorder, TraceConfig};
use siesta_workloads::{ProblemSize, Program};

/// Time `f` over `iters` iterations after `warmup` untimed ones; print a
/// criterion-style summary line and return `(mean_s, min_s)`.
fn bench<T>(name: &str, warmup: usize, iters: usize, mut f: impl FnMut() -> T) -> (f64, f64) {
    for _ in 0..warmup {
        black_box(f());
    }
    let mut total = 0.0f64;
    let mut min = f64::INFINITY;
    for _ in 0..iters {
        let t0 = Instant::now();
        black_box(f());
        let dt = t0.elapsed().as_secs_f64();
        total += dt;
        min = min.min(dt);
    }
    let mean = total / iters as f64;
    println!(
        "{name:<28} mean {:>10.3} ms   min {:>10.3} ms   ({iters} iters)",
        mean * 1e3,
        min * 1e3
    );
    (mean, min)
}

/// One measured point of the thread-scaling sweep.
struct ScalePoint {
    phase: &'static str,
    threads: usize,
    mean_s: f64,
    min_s: f64,
}

/// Sweep the worker-pool width over `WIDTHS` for one parallel phase and
/// append the points.
fn sweep<T>(
    points: &mut Vec<ScalePoint>,
    phase: &'static str,
    iters: usize,
    mut f: impl FnMut() -> T,
) {
    const WIDTHS: [usize; 4] = [1, 2, 4, 8];
    for &w in &WIDTHS {
        let (mean_s, min_s) =
            siesta_par::with_threads(w, || bench(&format!("{phase}_{w}t"), 1, iters, &mut f));
        points.push(ScalePoint { phase, threads: w, mean_s, min_s });
    }
}

/// Emit the scaling sweep as JSON (hand-rolled: the workspace is
/// registry-free). Speedups are against each phase's 1-thread mean.
fn write_scaling_json(path: &str, points: &[ScalePoint]) {
    // NOTE: on a single-core host (available_parallelism == 1) every
    // speedup_vs_1 hovers around 1.0 by construction — interpret the
    // curves together with host_parallelism.
    let mut out = String::from("{\n");
    out.push_str(&format!(
        "  \"host_parallelism\": {},\n  \"points\": [\n",
        siesta_par::available_parallelism()
    ));
    for (i, p) in points.iter().enumerate() {
        let base = points
            .iter()
            .find(|q| q.phase == p.phase && q.threads == 1)
            .map_or(p.mean_s, |q| q.mean_s);
        out.push_str(&format!(
            "    {{\"phase\": \"{}\", \"threads\": {}, \"mean_ms\": {:.3}, \"min_ms\": {:.3}, \"speedup_vs_1\": {:.3}}}{}\n",
            p.phase,
            p.threads,
            p.mean_s * 1e3,
            p.min_s * 1e3,
            base / p.mean_s,
            if i + 1 < points.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    match std::fs::write(path, &out) {
        Ok(()) => println!("scaling results written to {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

fn machine() -> Machine {
    Machine::new(platform_a(), MpiFlavor::OpenMpi)
}

/// Per-rank terminal tables of `events_per_rank` mostly-shared comm
/// events: every 7th event is rank-private, so pair merges both dedup and
/// grow.
fn synthetic_tables(
    nranks: usize,
    events_per_rank: usize,
) -> (Vec<siesta_trace::CommEvent>, Vec<Vec<siesta_trace::LocalEvent>>) {
    use siesta_trace::{CommEvent, LocalEvent};
    // The job's distinct events, numbered as the recorder numbers them:
    // by first introduction, in rank order.
    let mut events: Vec<CommEvent> = Vec::new();
    let mut ids: std::collections::HashMap<CommEvent, u32> = std::collections::HashMap::new();
    let tables = (0..nranks)
        .map(|r| {
            (0..events_per_rank)
                .map(|i| {
                    let tag = if i % 7 == 0 { (r * 10_000 + i) as i32 } else { i as i32 };
                    let bytes = 64 + (i as u64 % 512);
                    let event = CommEvent::Send { rel: 1, tag, bytes, comm: 0 };
                    LocalEvent::Comm(*ids.entry(event).or_insert_with_key(|e| {
                        events.push(e.clone());
                        events.len() as u32 - 1
                    }))
                })
                .collect()
        })
        .collect();
    (events, tables)
}

/// A trace-like sequence: nested loops with occasional irregularities.
fn trace_like_sequence(n: usize) -> Vec<u32> {
    let mut seq = Vec::with_capacity(n);
    let mut i = 0;
    while seq.len() < n {
        seq.extend([1, 2, 3, 2, 4]);
        seq.extend(std::iter::repeat_n(5, 8));
        if i % 10 == 9 {
            seq.extend([20, 21]);
        }
        i += 1;
    }
    seq.truncate(n);
    seq
}

fn main() {
    let m = machine();

    let seq = trace_like_sequence(10_000);
    bench("sequitur_10k_symbols", 2, 10, || Sequitur::build(black_box(&seq)));

    let searcher = ProxySearcher::new(&m);
    let target = m.cpu().counters(&KernelDesc::stencil(50_000.0, 6.0, 2e6));
    let t = target.as_array();
    bench("qp_block_fit", 10, 100, || {
        solve_block_fit(black_box(searcher.b_matrix()), black_box(&t))
    });

    // Two nearly identical main rules, SPMD-style.
    let a: Vec<u32> = (0..2000).map(|i| i % 37).collect();
    let mut bv = a.clone();
    for i in (0..2000).step_by(97) {
        bv[i] = 999;
    }
    bench("myers_lcs_2k_similar", 2, 20, || lcs::diff(black_box(&a), black_box(&bv), 200));

    let base = trace_like_sequence(2_000);
    let grammars: Vec<_> = (0..16)
        .map(|r| {
            let mut s = base.clone();
            s.push(100 + r);
            Sequitur::build(&s)
        })
        .collect();
    bench("merge_16_rank_grammars", 2, 10, || {
        merge_grammars(black_box(&grammars), &MergeConfig::default())
    });

    bench("mpisim_mg8_tiny", 1, 10, || Program::Mg.run(m, 8, ProblemSize::Tiny));

    bench("trace_and_table_merge_cg8", 1, 10, || {
        let rec = std::sync::Arc::new(Recorder::new_streaming(8, TraceConfig::default()));
        Program::Cg.run_hooked(m, 8, ProblemSize::Tiny, rec.clone());
        merge_streamed(rec.finish_streamed())
    });

    bench("synthesize_bt9_tiny", 1, 10, || {
        let siesta = Siesta::new(SiestaConfig::default());
        siesta.synthesize_run(m, 9, move |r| Program::Bt.body(ProblemSize::Tiny)(r))
    });

    // Thread-scaling sweep over the pool-parallel phases (1/2/4/8 worker
    // threads), emitted as BENCH_parallel.json for the scaling curves.
    // The differential harness guarantees width changes only wall time,
    // never output, so these all compute identical results.
    let mut points: Vec<ScalePoint> = Vec::new();

    // Per-rank Sequitur over a 32-rank trace, 20k symbols per rank (each
    // rank's sequence ends with a private epilogue, like real SPMD traces).
    let rank_seqs: Vec<Vec<u32>> = (0..32u32)
        .map(|r| {
            let mut s = trace_like_sequence(20_000);
            s.push(1_000 + r);
            s
        })
        .collect();
    sweep(&mut points, "sequitur_per_rank_32x20k", 5, || {
        siesta_par::parallel_map(&rank_seqs, |_, s| Sequitur::build(s))
    });

    // Batch QP solves over 256 distinct targets (no dedup hits, so every
    // solve is real work).
    let targets: Vec<_> = (0..256)
        .map(|i| {
            m.cpu().counters(&KernelDesc::stencil(
                10_000.0 + 137.0 * i as f64,
                2.0 + (i % 7) as f64,
                1e6,
            ))
        })
        .collect();
    sweep(&mut points, "qp_batch_256", 5, || searcher.search_batch(&targets));

    // The log2P table-merge tree over production-shaped tables: 64 ranks
    // with a few hundred unique events each (mostly shared across ranks,
    // so the absorb path does real dedup work). Recorded tiny-size traces
    // sit below the merge's small-work guard, so they would measure the
    // inline path at every width.
    let (events, tables) = synthetic_tables(64, 512);
    sweep(&mut points, "table_merge_synth64x512", 5, || {
        merge_rank_tables(&events, tables.clone())
    });

    // Anchor to the workspace root regardless of the bench binary's cwd.
    write_scaling_json(
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_parallel.json"),
        &points,
    );

    // The cross-rank memoization sweep and the rest of the grammar hot path
    // (unique-rank Sequitur, clustering, LCS merge) moved to the dedicated
    // `grammar_hotpath` bench, which emits the budget-gated
    // BENCH_grammar.json (v2).
}
