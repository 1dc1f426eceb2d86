//! Trace-ingest bench: events/s and peak memory, streaming vs materialized.
//!
//! Drives the PMPI recorder directly — synthetic `HookCtx` + `MpiCall`
//! records in the shape of a 2D halo exchange (two isend / two irecv /
//! waitall / allreduce per iteration, one clustered compute interval each)
//! — so the numbers isolate *ingest*: normalization, event interning, and
//! the sequence sink, with no simulator in the loop. Both modes run the one
//! recorder. Streaming feeds each rank's online Sequitur through a bounded
//! buffer (256 ids, well under a rank's stream, so every rank builds
//! online rather than at finish); the materialized baseline sets the
//! buffer to `STREAM_BUF_MAX`, which no stream fills, so every id stays
//! flat until finish. At 65 536 ranks the flat id sequences are the
//! dominant allocation, which is exactly what streaming exists to avoid.
//!
//! ```sh
//! cargo bench -p siesta-bench --bench trace_ingest            # full
//! cargo bench -p siesta-bench --bench trace_ingest -- --quick # CI smoke
//! ```
//!
//! Writes `BENCH_trace.json` (format v2) for `scripts/check_bench.py`:
//!
//! * an ingest-throughput floor on the streaming path (the production
//!   default must not regress);
//! * a peak-RSS ceiling on the streaming sweep;
//! * a floor on materialized-RSS / streaming-RSS — the acceptance claim
//!   that streaming holds less memory than materialization at 64k ranks.
//!   Streaming runs **first**: `VmHWM` is a process-lifetime high-water
//!   mark, so the ordering makes the ratio conservative (if materialized
//!   never out-allocates streaming, the ratio reads 1.0 and the gate
//!   fails — which is the regression it exists to catch).

use std::sync::Arc;
use std::time::Instant;

use siesta_mpisim::{CommId, HookCtx, MpiCall, PmpiHook};
use siesta_perfmodel::CounterVec;
use siesta_trace::{Recorder, TraceConfig, STREAM_BUF_MAX};

struct Config {
    quick: bool,
    ranks: usize,
    iters: usize,
    stream_buf: usize,
    reps: usize,
}

impl Config {
    fn detect() -> Config {
        let quick = std::env::args().any(|a| a == "--quick")
            || std::env::var("SIESTA_BENCH_QUICK").is_ok_and(|v| v == "1");
        if quick {
            Config { quick, ranks: 4096, iters: 96, stream_buf: 256, reps: 2 }
        } else {
            Config { quick, ranks: 65_536, iters: 160, stream_buf: 256, reps: 2 }
        }
    }

    /// Events ingested per run: per rank and iteration, six communication
    /// records plus one clustered compute interval.
    fn total_events(&self) -> usize {
        self.ranks * self.iters * 7
    }
}

/// Feed one rank's whole call stream through the hook, the way the
/// runtime would: cumulative counters advance once per iteration (one
/// compute cluster), then the halo calls post in program order.
fn drive_rank(rec: &Recorder, me: usize, ranks: usize, iters: usize) {
    let right = (me + 1) % ranks;
    let left = (me + ranks - 1) % ranks;
    let step = CounterVec::from_array([5_000.0, 120.0, 30.0, 65_536.0, 400.0, 12.0]);
    let mut counters = CounterVec::default();
    let mut call_seq = 0u32;
    let mut post = |counters: CounterVec, call: &MpiCall| {
        let ctx = HookCtx {
            rank: me,
            clock_ns: 0.0,
            counters,
            comm_rank: me,
            comm_size: ranks,
            call_start_ns: 0.0,
            wait_ns: 0.0,
            call_seq,
        };
        call_seq += 1;
        rec.post(&ctx, call);
    };
    for _ in 0..iters {
        counters += step;
        post(counters, &MpiCall::Isend { comm: CommId::WORLD, dest: right, tag: 7, bytes: 4096, req: 1 });
        post(counters, &MpiCall::Isend { comm: CommId::WORLD, dest: left, tag: 7, bytes: 4096, req: 2 });
        post(counters, &MpiCall::Irecv { comm: CommId::WORLD, src: left, tag: 7, bytes: 4096, req: 3 });
        post(counters, &MpiCall::Irecv { comm: CommId::WORLD, src: right, tag: 7, bytes: 4096, req: 4 });
        post(counters, &MpiCall::Waitall { reqs: vec![1, 2, 3, 4] });
        post(counters, &MpiCall::Allreduce { comm: CommId::WORLD, bytes: 8 });
    }
}

/// One full ingest run; returns wall seconds. The recorder (and with it
/// every per-rank sequence, buffer, and grammar) stays live until after
/// the finish call, so the RSS high-water mark covers the whole run.
fn run_once(cfg: &Config, stream: bool) -> f64 {
    let stream_buf = if stream { cfg.stream_buf } else { STREAM_BUF_MAX };
    let config = TraceConfig { stream_buf, ..TraceConfig::default() };
    let rec = Arc::new(Recorder::new_streaming(cfg.ranks, config));
    let t0 = Instant::now();
    for me in 0..cfg.ranks {
        drive_rank(&rec, me, cfg.ranks, cfg.iters);
    }
    let ingested = rec.finish_streamed().total_events();
    let dt = t0.elapsed().as_secs_f64();
    assert_eq!(ingested, cfg.total_events(), "ingest event count drifted");
    dt
}

struct ModeResult {
    mean_s: f64,
    min_s: f64,
    events_per_sec: f64,
    peak_rss: u64,
}

fn run_mode(cfg: &Config, stream: bool) -> ModeResult {
    let mut total = 0.0;
    let mut min = f64::INFINITY;
    for _ in 0..cfg.reps {
        let dt = run_once(cfg, stream);
        total += dt;
        min = min.min(dt);
    }
    ModeResult {
        mean_s: total / cfg.reps as f64,
        min_s: min,
        events_per_sec: cfg.total_events() as f64 / min,
        peak_rss: siesta_obs::peak_rss_bytes().unwrap_or(0),
    }
}

fn main() {
    let cfg = Config::detect();
    println!(
        "trace_ingest synthetic-halo2d ranks={} iters={} stream_buf={} ({} reps{})",
        cfg.ranks,
        cfg.iters,
        cfg.stream_buf,
        cfg.reps,
        if cfg.quick { ", quick" } else { "" }
    );
    println!(
        "{:>13}  {:>10}  {:>10}  {:>13}  {:>10}",
        "mode", "mean ms", "min ms", "events/s", "peak RSS"
    );

    // Streaming first — see the module doc for why the order matters.
    let mut points = String::new();
    let mut report = |label: &str, r: &ModeResult| {
        println!(
            "{label:>13}  {:>10.1}  {:>10.1}  {:>13.0}  {:>8.1} MB",
            r.mean_s * 1e3,
            r.min_s * 1e3,
            r.events_per_sec,
            r.peak_rss as f64 / (1024.0 * 1024.0)
        );
        if !points.is_empty() {
            points.push(',');
        }
        points.push_str(&format!(
            "\n    {{\"phase\": \"{label}\", \"mean_ms\": {:.3}, \"min_ms\": {:.3}, \
             \"events_per_sec\": {:.0}, \"peak_rss_bytes\": {}}}",
            r.mean_s * 1e3,
            r.min_s * 1e3,
            r.events_per_sec,
            r.peak_rss
        ));
    };
    let streaming = run_mode(&cfg, true);
    report("streaming", &streaming);
    let materialized = run_mode(&cfg, false);
    report("materialized", &materialized);

    const GB: f64 = 1024.0 * 1024.0 * 1024.0;
    let stream_gb = streaming.peak_rss as f64 / GB;
    let mat_gb = materialized.peak_rss as f64 / GB;
    let rss_ratio = if streaming.peak_rss > 0 {
        materialized.peak_rss as f64 / streaming.peak_rss as f64
    } else {
        0.0
    };

    // Floors under the recorded values with regression margin; the RSS
    // ratio floor is the acceptance claim itself (streaming must hold
    // meaningfully less than materialization — a ratio collapsing toward
    // 1.0 means the bounded buffer stopped bounding anything).
    let (eps_budget, ratio_budget, rss_cap_gb) =
        if cfg.quick { (1_500_000.0, 1.0, 0.25) } else { (1_500_000.0, 1.25, 0.45) };

    let path = if cfg.quick {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_trace_quick.json")
    } else {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_trace.json")
    };
    let json = format!(
        "{{\n  \"version\": 2,\n  \"bench\": \"trace_ingest\",\n  \"mode\": \"{}\",\n  \
         \"host_parallelism\": {},\n  \"workload\": \"synthetic-halo2d\",\n  \
         \"ranks\": {},\n  \"iters\": {},\n  \"stream_buf\": {},\n  \"reps\": {},\n  \
         \"total_events\": {},\n  \
         \"events_per_sec_streaming\": {:.0},\n  \
         \"budget_min_events_per_sec_streaming\": {:.0},\n  \
         \"events_per_sec_materialized\": {:.0},\n  \
         \"peak_rss_streaming_gb\": {:.4},\n  \
         \"budget_max_peak_rss_streaming_gb\": {:.2},\n  \
         \"peak_rss_materialized_gb\": {:.4},\n  \
         \"rss_ratio_materialized_vs_streaming\": {:.4},\n  \
         \"budget_min_rss_ratio_materialized_vs_streaming\": {:.2},\n  \
         \"points\": [{points}\n  ]\n}}\n",
        if cfg.quick { "quick" } else { "full" },
        siesta_par::available_parallelism(),
        cfg.ranks,
        cfg.iters,
        cfg.stream_buf,
        cfg.reps,
        cfg.total_events(),
        streaming.events_per_sec,
        eps_budget,
        materialized.events_per_sec,
        stream_gb,
        rss_cap_gb,
        mat_gb,
        rss_ratio,
        ratio_budget,
    );
    match std::fs::write(path, &json) {
        Ok(()) => println!("trace-ingest results written to {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}
