//! Differential oracle for the parallel pipeline: the sequential path
//! (`--threads 1`) and the pooled path at any width must produce
//! **byte-identical** synthesized programs and reports.
//!
//! This is the determinism contract of `siesta-par` (see DESIGN.md):
//! index-ordered collection means thread count and OS scheduling can
//! change wall time but never a single output bit. Every workload runs
//! end to end (trace → table merge → Sequitur → grammar merge → QP batch
//! → codegen) at widths 1, 2, and 8, and we compare the wire bytes of the
//! proxy program, the emitted C source, and the synthesis report.

use std::sync::Mutex;

use siesta_codegen::{emit_c, wire};
use siesta_core::{Siesta, SiestaConfig};
use siesta_perfmodel::{platform_a, Machine, MpiFlavor};
use siesta_workloads::halo::halo2d_body;
use siesta_workloads::{ProblemSize, Program};

/// Serializes tests: the pool width is process-global state.
static WIDTH_LOCK: Mutex<()> = Mutex::new(());

const WIDTHS: [usize; 3] = [1, 2, 8];

fn machine() -> Machine {
    Machine::new(platform_a(), MpiFlavor::OpenMpi)
}

/// Everything a synthesis run externalizes, as bytes/strings to compare.
struct Output {
    wire_bytes: Vec<u8>,
    c_source: String,
    report: String,
}

fn synthesize_at(width: usize, program: Program, config: SiestaConfig) -> Output {
    siesta_par::with_threads(width, || {
        let siesta = Siesta::new(config);
        let (synthesis, _) =
            siesta.synthesize_run(machine(), 16, move |r| program.body(ProblemSize::Tiny)(r));
        Output {
            wire_bytes: wire::to_bytes(&synthesis.program),
            c_source: emit_c(&synthesis.program),
            report: format!(
                "{:?} ratio={:.6}",
                synthesis.stats,
                synthesis.stats.compression_ratio()
            ),
        }
    })
}

#[test]
fn every_workload_is_bit_identical_across_thread_counts() {
    let _g = WIDTH_LOCK.lock().unwrap();
    for program in Program::ALL {
        let baseline = synthesize_at(WIDTHS[0], program, SiestaConfig::default());
        for &width in &WIDTHS[1..] {
            let got = synthesize_at(width, program, SiestaConfig::default());
            assert_eq!(
                got.wire_bytes,
                baseline.wire_bytes,
                "{}: wire bytes diverge at {width} threads",
                program.name()
            );
            assert_eq!(
                got.c_source,
                baseline.c_source,
                "{}: C source diverges at {width} threads",
                program.name()
            );
            assert_eq!(
                got.report,
                baseline.report,
                "{}: synthesis report diverges at {width} threads",
                program.name()
            );
        }
    }
}

#[test]
fn scaled_synthesis_is_bit_identical_across_thread_counts() {
    let _g = WIDTH_LOCK.lock().unwrap();
    // The paper's shrunk configuration exercises comm shrinking and
    // counter scaling on top of the default path.
    let program = Program::Sweep3d;
    let baseline = synthesize_at(WIDTHS[0], program, SiestaConfig::scaled());
    for &width in &WIDTHS[1..] {
        let got = synthesize_at(width, program, SiestaConfig::scaled());
        assert_eq!(got.wire_bytes, baseline.wire_bytes, "scaled wire bytes, {width} threads");
        assert_eq!(got.report, baseline.report, "scaled report, {width} threads");
    }
}

#[test]
fn merged_trace_is_bit_identical_across_thread_counts() {
    let _g = WIDTH_LOCK.lock().unwrap();
    // The table-merge tree in isolation: same global table, same ids,
    // same serialized bytes at every width (including a non-power-of-two
    // rank count, where the last pair of each round is a passthrough).
    for nranks in [13, 16] {
        let trace_at = |width: usize| {
            siesta_par::with_threads(width, || {
                let siesta = Siesta::new(SiestaConfig::default());
                let (trace, _) = siesta.trace_run(machine(), nranks, move |r| {
                    Program::Sweep3d.body(ProblemSize::Tiny)(r)
                });
                siesta_trace::store_to_bytes(&siesta.merge_streamed(trace))
            })
        };
        let baseline = trace_at(WIDTHS[0]);
        for &width in &WIDTHS[1..] {
            assert_eq!(
                trace_at(width),
                baseline,
                "merged trace diverges at {width} threads (nranks={nranks})"
            );
        }
    }
}

#[test]
fn recorded_trace_is_equal_across_thread_counts() {
    let _g = WIDTH_LOCK.lock().unwrap();
    // Ranks race to intern the same events at any width above one; the
    // trace `trace_run` returns (event list, local tables, grammars) must
    // not show it. The halo ranks share 9 distinct events between 1,024.
    let trace_at = |width: usize, halo: bool| {
        siesta_par::with_threads(width, || {
            let siesta = Siesta::new(SiestaConfig::default());
            if halo {
                siesta.trace_run(machine(), 1024, halo2d_body(3, 4096)).0
            } else {
                siesta.trace_run(machine(), 64, Program::Sweep3d.body(ProblemSize::Tiny)).0
            }
        })
    };
    for halo in [false, true] {
        let baseline = trace_at(WIDTHS[0], halo);
        // One run shows a race only sometimes: try each width thrice.
        for &width in WIDTHS[1..].iter().cycle().take(6) {
            assert!(
                trace_at(width, halo) == baseline,
                "recorded trace diverges at {width} threads ({})",
                if halo { "halo/1024" } else { "SWEEP3D/64" }
            );
        }
    }
}
