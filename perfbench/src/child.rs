//! The measured side. Each function here runs in a fresh process that
//! the runner spawns, so every synthesis starts cold: no allocator pages,
//! pool threads or caches left over from an earlier one. A child prints
//! `key value` lines on stdout after its timed work and exits; a panic
//! (a failed check, or a deadlocked replay) exits non-zero, and the
//! runner counts that repetition as failed.

use std::fmt::Display;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use siesta_codegen::{emit_c, replay, to_bytes};
use siesta_core::{counter_error_pct, time_error_pct, Siesta, SiestaConfig, Synthesis};
use siesta_grammar::{build_rank_grammars, merge_grammars};
use siesta_mpisim::{HookCtx, MpiCall, PmpiHook, RunStats, World};
use siesta_proxy::{shrink_counters, ProxySearcher};
use siesta_trace::{EventRecord, Recorder};

use crate::workload::{machine, Workload};

/// Collects a child's output; printed in one go once the timed work is
/// over.
#[derive(Default)]
struct Out(String);

impl Out {
    fn put(&mut self, key: &str, value: impl Display) {
        self.0.push_str(&format!("{key} {value}\n"));
    }

    fn print(self) {
        print!("{}", self.0);
    }
}

/// Wall-clock nanoseconds since the Unix epoch. The runner reads the same
/// clock just before it spawns a child, so the difference is set-up time.
pub fn unix_ns() -> u128 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .expect("clock after 1970")
        .as_nanos()
}

/// Reset this process's `VmHWM` to its current RSS, so the next read
/// gives the peak of the phase in between.
fn reset_peak_rss() {
    std::fs::write("/proc/self/clear_refs", "5").expect("VmHWM reset via /proc/self/clear_refs");
}

fn peak_rss_mb() -> f64 {
    siesta_obs::peak_rss_bytes().expect("VmHWM in /proc/self/status") as f64 / (1024.0 * 1024.0)
}

/// FNV-1a over the proxy's wire bytes: every repetition must agree.
fn fnv1a(bytes: &[u8]) -> String {
    let h = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    });
    format!("{h:016x}")
}

/// C source and wire bytes of a synthesis: the end of every timed run.
fn export(synthesis: &Synthesis) -> (String, Vec<u8>) {
    (emit_c(&synthesis.program), to_bytes(&synthesis.program))
}

/// Replay the proxy (panics on deadlock) and check that it issues exactly
/// the original's per-rank MPI call counts and bytes sent.
fn replay_lossless(synthesis: &Synthesis, original: &RunStats) -> RunStats {
    let replayed = replay(&synthesis.program, machine());
    assert_eq!(
        replayed.per_rank.len(),
        original.per_rank.len(),
        "replay rank count"
    );
    for (p, o) in replayed.per_rank.iter().zip(&original.per_rank) {
        assert_eq!(
            (p.app_calls, p.bytes_sent),
            (o.app_calls, o.bytes_sent),
            "rank {}: replayed (calls, bytes) differ from the original",
            o.rank
        );
    }
    replayed
}

/// One timed repetition: a cold `synthesize_run` with the default
/// configuration, then `emit_c` and `wire::to_bytes`. With `fidelity`,
/// afterwards and untimed, the proxy is replayed and checked, and the
/// original program runs un-instrumented for the time and counter errors.
/// The runner checks every other repetition by its wire bytes, which must
/// equal those of the replayed proxy: replay is deterministic, so equal
/// bytes replay identically.
pub fn rep(w: &Workload, fidelity: bool) {
    let machine = machine();
    let body = w.body();
    let siesta = Siesta::new(SiestaConfig::default());
    let entered = unix_ns();
    let t = Instant::now();
    let (synthesis, traced) = siesta.synthesize_run(machine, w.nranks, body);
    let (c_src, wire) = export(&synthesis);
    let synth_s = t.elapsed().as_secs_f64();
    let rss = peak_rss_mb();
    black_box(&c_src);

    let mut out = Out::default();
    out.put("entered_unix_ns", entered);
    out.put("synth_s", synth_s);
    out.put("peak_rss_mb", rss);
    out.put("compression_ratio", synthesis.stats.compression_ratio());
    out.put("wire_hash", fnv1a(&wire));
    if fidelity {
        let replayed = replay_lossless(&synthesis, &traced);
        let original = World::new(machine, w.nranks).run(w.body());
        out.put("time_error_pct", time_error_pct(&replayed, &original));
        out.put("counter_error_pct", counter_error_pct(&replayed, &original));
    }
    out.print();
}

/// A repetition's set-up alone: [`rep`]'s start, up to where `rep` calls
/// into `synthesize_run`. The runner spawns several of these between
/// repetitions, so `setup_s` is the fastest of many set-ups.
pub fn setup(w: &Workload) {
    let built = (machine(), w.body(), Siesta::new(SiestaConfig::default()));
    let entered = unix_ns();
    black_box(&built);
    let mut out = Out::default();
    out.put("entered_unix_ns", entered);
    out.print();
}

/// The `--no-stream` path end to end, like for like with [`rep`]:
/// `synthesize_run` with `stream: false` (`trace_run`, `merge_trace`,
/// `synthesize_global`), then the same export.
pub fn materialized(w: &Workload) {
    let machine = machine();
    let body = w.body();
    let siesta = Siesta::new(SiestaConfig {
        stream: false,
        ..SiestaConfig::default()
    });
    reset_peak_rss();
    let t = Instant::now();
    let (synthesis, _) = siesta.synthesize_run(machine, w.nranks, body);
    let (c_src, wire) = export(&synthesis);
    let elapsed = t.elapsed().as_secs_f64();
    let rss = peak_rss_mb();
    black_box(&c_src);

    let mut out = Out::default();
    out.put("ingest.materialized_s", elapsed);
    out.put("ingest.materialized_peak_rss_mb", rss);
    out.put("wire_hash", fnv1a(&wire));
    out.print();
}

/// The synthesis split at its public layer boundaries, in the order
/// `synthesize_run` calls them, with a timer around each: the tracing run
/// (`Recorder::new_streaming` hooked into `World::run`, then
/// `finish_streamed`), `merge_streamed`, `synthesize_streamed_global`,
/// and the export. Then the replay used for fidelity.
pub fn layers_pipeline(w: &Workload) {
    let machine = machine();
    let body = w.body();
    let siesta = Siesta::new(SiestaConfig::default());
    let config = siesta.config;
    let mut out = Out::default();

    reset_peak_rss();
    let t = Instant::now();
    let recorder = Arc::new(Recorder::new_streaming(w.nranks, config.trace));
    let traced = World::new(machine, w.nranks)
        .with_hook(recorder.clone())
        .run(body);
    let t_finish = Instant::now();
    let streamed = recorder.finish_streamed();
    let finish_s = t_finish.elapsed().as_secs_f64();
    let record_s = t.elapsed().as_secs_f64();
    out.put("trace.record_peak_rss_mb", peak_rss_mb());
    out.put("trace.record_s", record_s);
    out.put("trace.finish_s", finish_s);
    out.put("trace.events", streamed.total_events());
    drop(recorder);

    reset_peak_rss();
    let t = Instant::now();
    let global = siesta.merge_streamed(streamed);
    out.put("trace.merge_s", t.elapsed().as_secs_f64());
    out.put("trace.merge_peak_rss_mb", peak_rss_mb());
    out.put("trace.merge_rounds", global.merge_rounds);
    out.put("trace.terminals", global.table.len());

    let t = Instant::now();
    let synthesis = siesta.synthesize_streamed_global(global, &machine);
    out.put("core.synthesize_s", t.elapsed().as_secs_f64());

    let t = Instant::now();
    let (c_src, wire) = export(&synthesis);
    out.put("codegen.emit_s", t.elapsed().as_secs_f64());
    out.put("codegen.c_bytes", c_src.len());
    out.put("codegen.wire_bytes", wire.len());
    out.put("wire_hash", fnv1a(&wire));

    let t = Instant::now();
    replay_lossless(&synthesis, &traced);
    out.put("codegen.replay_s", t.elapsed().as_secs_f64());
    out.print();
}

/// Mean nanoseconds that an empty `Instant::now()` / `elapsed()` pair
/// measures: the clock's own share of every interval [`TimedPost`] takes.
fn clock_pair_ns() -> f64 {
    const PAIRS: u32 = 200_000;
    let total: Duration = (0..PAIRS).map(|_| Instant::now().elapsed()).sum();
    total.as_nanos() as f64 / f64::from(PAIRS)
}

/// A PMPI hook that forwards every call to the recorder and times the
/// inside of `Recorder::post`. It forwards `overhead_ns` too, so virtual
/// time and artifacts match an untimed recording.
struct TimedPost {
    inner: Arc<Recorder>,
    post_ns: AtomicU64,
    posts: AtomicU64,
}

impl PmpiHook for TimedPost {
    fn pre(&self, ctx: &HookCtx, call: &MpiCall) {
        self.inner.pre(ctx, call);
    }

    fn post(&self, ctx: &HookCtx, call: &MpiCall) {
        let t = Instant::now();
        self.inner.post(ctx, call);
        let ns = t.elapsed().as_nanos() as u64;
        self.post_ns.fetch_add(ns, Ordering::Relaxed);
        self.posts.fetch_add(1, Ordering::Relaxed);
    }

    fn overhead_ns(&self) -> f64 {
        self.inner.overhead_ns()
    }
}

/// The engine and grammar layers, each through its public functions: an
/// unhooked `World::run`; a counting pass that reads the scheduler's
/// `obs.sim.sched.*` counters; a recording whose `Recorder::post` calls
/// are timed; then, on that recording's merged trace, `merge_grammars`,
/// the proxy search, and Sequitur over every rank's id sequence.
pub fn layers_engine(w: &Workload) {
    let machine = machine();
    let config = SiestaConfig::default();
    let mut out = Out::default();

    reset_peak_rss();
    let t = Instant::now();
    let original = World::new(machine, w.nranks).run(w.body());
    let run_s = t.elapsed().as_secs_f64();
    out.put("mpisim.peak_rss_mb", peak_rss_mb());
    out.put("mpisim.run_s", run_s);
    out.put("mpisim.calls", original.total_calls());
    drop(original);

    siesta_obs::set_profiling_enabled(true);
    siesta_obs::reset_metrics();
    World::new(machine, w.nranks).run(w.body());
    siesta_obs::set_profiling_enabled(false);
    out.put(
        "mpisim.sched_rounds",
        siesta_obs::counter("obs.sim.sched.rounds").get(),
    );
    out.put(
        "mpisim.sched_wakes",
        siesta_obs::counter("obs.sim.sched.wakes").get(),
    );
    drop(siesta_obs::drain());

    let hook = Arc::new(TimedPost {
        inner: Arc::new(Recorder::new_streaming(w.nranks, config.trace)),
        post_ns: AtomicU64::new(0),
        posts: AtomicU64::new(0),
    });
    World::new(machine, w.nranks)
        .with_hook(hook.clone())
        .run(w.body());
    // Less the clock's own cost, once per timed post.
    let posts = hook.posts.load(Ordering::Relaxed);
    let post_ns = hook.post_ns.load(Ordering::Relaxed) as f64 - posts as f64 * clock_pair_ns();
    out.put("trace.post_s", post_ns.max(0.0) / 1e9);
    out.put("posts", posts);
    let global = Siesta::new(config).merge_streamed(hook.inner.finish_streamed());

    let t = Instant::now();
    let merged = merge_grammars(&global.grammars, &config.merge);
    out.put("grammar.merge_s", t.elapsed().as_secs_f64());
    out.put("grammar.rules", merged.rules.len());
    out.put("grammar.mains", merged.mains.len());
    out.put("grammar.size", merged.size());
    drop(merged);

    // The search targets, built as the synthesis builds them.
    let targets: Vec<_> = global
        .table
        .iter()
        .filter_map(|rec| match rec {
            EventRecord::Compute(stats) => Some(shrink_counters(&stats.mean(), config.scale)),
            EventRecord::Comm(_) => None,
        })
        .collect();
    let t = Instant::now();
    let searcher = ProxySearcher::new(&machine);
    black_box(searcher.search_batch(&targets));
    out.put("proxy.search_s", t.elapsed().as_secs_f64());
    out.put("proxy.targets", targets.len());

    let seqs = global.to_global_trace().seqs;
    drop(global);
    let t = Instant::now();
    black_box(build_rank_grammars(&seqs, false));
    out.put("grammar.sequitur_s", t.elapsed().as_secs_f64());
    let t = Instant::now();
    black_box(build_rank_grammars(&seqs, true));
    out.put("grammar.sequitur_unique_s", t.elapsed().as_secs_f64());
    let unique: std::collections::HashSet<&[u32]> = seqs.iter().map(Vec::as_slice).collect();
    out.put("grammar.unique_seqs", unique.len());
    out.print();
}
