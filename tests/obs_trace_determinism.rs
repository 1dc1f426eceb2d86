//! Observability artifacts extend the PR 3 determinism contract: the
//! **canonical** Chrome trace and `--stats` report (what the CLI emits
//! under `SIESTA_OBS_CANONICAL=1`) must be byte-identical at any
//! `--threads` width, on every one of the nine evaluation workloads.
//!
//! The canonical forms strip what legitimately varies between runs —
//! wall-clock timestamps, thread ids, the recorder's own `obs.*`
//! bookkeeping, the `par.threads` gauge — and keep everything the
//! workload determines: which spans ran, with which args, how often, and
//! every pipeline counter/gauge.

use std::sync::Mutex;

use siesta_core::{Siesta, SiestaConfig};
use siesta_perfmodel::{platform_a, Machine, MpiFlavor};
use siesta_workloads::{ProblemSize, Program};

/// Serializes tests: pool width, profiling switch, and the metrics
/// registry are process-global.
static WIDTH_LOCK: Mutex<()> = Mutex::new(());

const WIDTHS: [usize; 3] = [1, 2, 8];

fn machine() -> Machine {
    Machine::new(platform_a(), MpiFlavor::OpenMpi)
}

struct Artifacts {
    chrome_canonical: String,
    report_canonical: String,
}

fn profile_at(width: usize, program: Program) -> Artifacts {
    siesta_obs::reset_metrics();
    siesta_obs::drain_spans();
    siesta_obs::set_profiling_enabled(true);
    siesta_par::with_threads(width, || {
        let siesta = Siesta::new(SiestaConfig::default());
        let (_, _) =
            siesta.synthesize_run(machine(), 16, move |r| program.body(ProblemSize::Tiny)(r));
    });
    siesta_obs::set_profiling_enabled(false);
    let spans = siesta_obs::drain_spans();
    let metrics = siesta_obs::metrics_snapshot();
    Artifacts {
        chrome_canonical: siesta_obs::chrome::chrome_trace_json_canonical(&spans),
        report_canonical: siesta_obs::report::render_canonical_report(&spans, &metrics),
    }
}

#[test]
fn canonical_trace_and_report_are_byte_identical_across_widths() {
    let _g = WIDTH_LOCK.lock().unwrap();
    for program in Program::ALL {
        let baseline = profile_at(WIDTHS[0], program);
        // The artifacts must have real content, or the test is vacuous.
        assert!(
            baseline.chrome_canonical.contains("\"name\":\"sequitur"),
            "{}: canonical trace missing pipeline spans",
            program.name()
        );
        assert!(
            baseline.report_canonical.contains("counters:"),
            "{}: canonical report missing counters",
            program.name()
        );
        assert!(
            !baseline.report_canonical.contains("par.threads"),
            "{}: canonical report leaks the thread width",
            program.name()
        );
        for &width in &WIDTHS[1..] {
            let got = profile_at(width, program);
            assert_eq!(
                got.chrome_canonical,
                baseline.chrome_canonical,
                "{}: canonical Chrome trace diverges at {width} threads",
                program.name()
            );
            assert_eq!(
                got.report_canonical,
                baseline.report_canonical,
                "{}: canonical report diverges at {width} threads",
                program.name()
            );
        }
    }
}

/// Virtual-time profiler artifacts (PR 9): unlike the wall-clock trace,
/// these need no canonical form — virtual timestamps are a pure function
/// of the simulated program, so the raw exports themselves must be
/// byte-identical at any width.
struct SimArtifacts {
    vt_trace: String,
    critical: String,
    comm_matrix: String,
}

fn sim_profile_at(width: usize, program: Program) -> SimArtifacts {
    siesta_obs::reset_metrics();
    siesta_obs::drain_spans();
    siesta_mpisim::set_sim_profile_enabled(true);
    siesta_mpisim::set_comm_matrix_enabled(true);
    siesta_par::with_threads(width, || {
        let siesta = Siesta::new(SiestaConfig::default());
        let (_, _) =
            siesta.synthesize_run(machine(), 16, move |r| program.body(ProblemSize::Tiny)(r));
    });
    siesta_mpisim::set_sim_profile_enabled(false);
    siesta_mpisim::set_comm_matrix_enabled(false);
    let snap = siesta_mpisim::take_sim_profile().expect("profiler installed by trace run");
    let matrix = siesta_mpisim::take_comm_matrix().expect("comm matrix installed by trace run");
    SimArtifacts {
        vt_trace: snap.chrome_trace_json(256),
        critical: siesta_mpisim::critical_path(&snap).render(),
        comm_matrix: matrix.to_json(),
    }
}

#[test]
fn sim_profiler_artifacts_are_byte_identical_across_widths_and_memo() {
    let _g = WIDTH_LOCK.lock().unwrap();
    for program in Program::ALL {
        let baseline = sim_profile_at(WIDTHS[0], program);
        assert!(
            baseline.vt_trace.contains("\"name\":\"MPI_"),
            "{}: virtual-time trace recorded no MPI intervals",
            program.name()
        );
        assert!(
            baseline.critical.starts_with("critical path:"),
            "{}: critical-path report missing headline",
            program.name()
        );
        assert!(
            baseline.comm_matrix.contains("\"p2p\""),
            "{}: comm matrix missing p2p cells",
            program.name()
        );
        for &width in &WIDTHS[1..] {
            let got = sim_profile_at(width, program);
            assert_eq!(
                got.vt_trace,
                baseline.vt_trace,
                "{}: virtual-time trace diverges at {width} threads",
                program.name()
            );
            assert_eq!(
                got.critical,
                baseline.critical,
                "{}: critical-path report diverges at {width} threads",
                program.name()
            );
            assert_eq!(
                got.comm_matrix,
                baseline.comm_matrix,
                "{}: comm matrix diverges at {width} threads",
                program.name()
            );
        }
    }
}

#[test]
fn canonical_report_is_stable_across_repeat_runs_at_same_width() {
    let _g = WIDTH_LOCK.lock().unwrap();
    // Same width twice: catches nondeterminism that width-variation alone
    // would mask (e.g. iteration order of a hash map leaking into the
    // report).
    let a = profile_at(2, Program::Sweep3d);
    let b = profile_at(2, Program::Sweep3d);
    assert_eq!(a.chrome_canonical, b.chrome_canonical);
    assert_eq!(a.report_canonical, b.report_canonical);
}
