//! Differential oracle for the grammar lift: the one trace-ingest path
//! (each rank's grammar built from its bounded stream, then relabeled into
//! global ids through the table merge without expansion) must produce
//! **byte-identical** artifacts to the rebuild reference (expand every
//! rank through `merge_tables`, then batch Sequitur per rank).
//!
//! The two share the recorder, the simulator and the synthesis back half
//! but nothing in between: one relabels grammars through composed table
//! remaps (memoizing on a running content hash, rebuilding ranks whose
//! remap is not injective), the other rewrites whole sequences and re-runs
//! Sequitur. If grammar construction, table-merge remapping or
//! memoization order depended on the path anywhere, these runs would
//! diverge. Every comparison covers the full pipeline — proxy wire
//! bytes, emitted C, the trace store (whose rebuild-side grammars are
//! batch Sequitur's), the synthesis report, traced run stats with the
//! event-schedule hash — on all nine paper workloads, across pool widths
//! 1/2/8 and stream buffer sizes from the flush-heavy minimum to one no
//! stream fills.
//!
//! ```sh
//! cargo test -p siesta-bench --test differential_engine
//! ```

use std::sync::Mutex;

use siesta_codegen::{emit_c, wire};
use siesta_core::{Siesta, SiestaConfig};
use siesta_grammar::build_rank_grammars;
use siesta_perfmodel::{platform_a, Machine, MpiFlavor};
use siesta_trace::{
    merge_tables, store_to_bytes, StreamedGlobal, TraceConfig, STREAM_BUF_MAX, STREAM_BUF_MIN,
};
use siesta_workloads::{ProblemSize, Program};

/// Serializes tests: the pool width is process-global.
static WIDTH_LOCK: Mutex<()> = Mutex::new(());

const WIDTHS: [usize; 3] = [1, 2, 8];
const NPROCS: usize = 16;

fn machine() -> Machine {
    Machine::new(platform_a(), MpiFlavor::OpenMpi)
}

/// Everything a synthesis run externalizes, as bytes/strings to compare.
struct Output {
    wire_bytes: Vec<u8>,
    c_source: String,
    store_bytes: Vec<u8>,
    report: String,
    stats: String,
}

/// Trace `program` and synthesize it by the lift (`stream`) or the
/// rebuild.
fn synthesize(stream: bool, width: usize, program: Program, config: SiestaConfig) -> Output {
    siesta_par::with_threads(width, || {
        let siesta = Siesta::new(config);
        let (trace, traced) = siesta.trace_run(machine(), NPROCS, program.body(ProblemSize::Tiny));
        let (synthesis, store_bytes) = if stream {
            let sg = siesta.merge_streamed(trace);
            let store_bytes = store_to_bytes(&sg);
            (siesta.synthesize_streamed_global(sg, &machine()), store_bytes)
        } else {
            let global = merge_tables(trace);
            let store_bytes = store_to_bytes(&StreamedGlobal {
                nranks: global.nranks,
                table: global.table.clone(),
                grammars: build_rank_grammars(&global.seqs, true),
                raw_bytes: global.raw_bytes,
                merge_rounds: global.merge_rounds,
            });
            (siesta.synthesize_global(global, &machine()), store_bytes)
        };
        Output {
            wire_bytes: wire::to_bytes(&synthesis.program),
            c_source: emit_c(&synthesis.program),
            store_bytes,
            report: format!(
                "{:?} ratio={:.6}",
                synthesis.stats,
                synthesis.stats.compression_ratio()
            ),
            stats: format!("{:?} hash={:016x}", traced, traced.schedule_hash()),
        }
    })
}

fn assert_same(program: Program, label: &str, got: &Output, baseline: &Output) {
    let name = program.name();
    assert_eq!(got.wire_bytes, baseline.wire_bytes, "{name}: wire bytes diverge ({label})");
    assert_eq!(got.c_source, baseline.c_source, "{name}: C source diverges ({label})");
    assert_eq!(
        got.store_bytes, baseline.store_bytes,
        "{name}: trace store diverges ({label})"
    );
    assert_eq!(got.report, baseline.report, "{name}: synthesis report diverges ({label})");
    assert_eq!(got.stats, baseline.stats, "{name}: traced run stats diverge ({label})");
}

fn with_stream_buf(stream_buf: usize) -> SiestaConfig {
    SiestaConfig {
        trace: TraceConfig { stream_buf, ..TraceConfig::default() },
        ..SiestaConfig::default()
    }
}

#[test]
fn streaming_matches_materialized_on_every_workload() {
    let _g = WIDTH_LOCK.lock().unwrap();
    for program in Program::ALL {
        let baseline = synthesize(false, 1, program, SiestaConfig::default());
        for &width in &WIDTHS {
            let got = synthesize(true, width, program, SiestaConfig::default());
            assert_same(program, &format!("lift, {width} threads"), &got, &baseline);
        }
    }
}

#[test]
fn memo_and_buffer_toggles_agree_across_modes() {
    let _g = WIDTH_LOCK.lock().unwrap();
    // The flush-heavy extreme drains the buffer into the online Sequitur
    // every 16 events; `STREAM_BUF_MAX` holds every stream until finish
    // and builds it there, once per distinct stream. Grammar output must
    // depend on neither the flush cadence nor the pool width.
    let tiny_buf = with_stream_buf(STREAM_BUF_MIN);
    let whole_buf = with_stream_buf(STREAM_BUF_MAX);
    for program in Program::ALL {
        let baseline = synthesize(false, 1, program, SiestaConfig::default());
        for (stream, width, config, label) in [
            (true, 1, tiny_buf, "lift, 16-id buffer, 1 thread"),
            (true, 2, tiny_buf, "lift, 16-id buffer, 2 threads"),
            (true, 8, tiny_buf, "lift, 16-id buffer, 8 threads"),
            (true, 1, whole_buf, "lift, unfilled buffer, 1 thread"),
            (true, 2, whole_buf, "lift, unfilled buffer, 2 threads"),
            (true, 8, whole_buf, "lift, unfilled buffer, 8 threads"),
            (false, 2, tiny_buf, "rebuild, 16-id buffer, 2 threads"),
        ] {
            let got = synthesize(stream, width, program, config);
            assert_same(program, label, &got, &baseline);
        }
    }
}

#[test]
fn streamed_store_feeds_offline_synthesis() {
    let _g = WIDTH_LOCK.lock().unwrap();
    // The offline workflow: a store of the lifted grammars, loaded back
    // and synthesized through the same lift back half, must give the same
    // proxy as the live run.
    for program in [Program::Sweep3d, Program::Is] {
        let live = synthesize(true, 2, program, SiestaConfig::default());
        let path = std::env::temp_dir().join(format!(
            "siesta-diff-offline-{}-{}.siestatrace",
            std::process::id(),
            program.name()
        ));
        std::fs::write(&path, &live.store_bytes).expect("store write");
        let sg = siesta_trace::load_trace(&path).expect("store load");
        std::fs::remove_file(&path).ok();
        let synthesis =
            Siesta::new(SiestaConfig::default()).synthesize_streamed_global(sg, &machine());
        assert_eq!(
            wire::to_bytes(&synthesis.program),
            live.wire_bytes,
            "{}: offline synthesis from streamed store diverges",
            program.name()
        );
    }
}
