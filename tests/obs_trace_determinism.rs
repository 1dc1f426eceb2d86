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

use std::sync::{Barrier, Mutex};

use siesta_core::{Siesta, SiestaConfig};
use siesta_mpisim::{Observe, World};
use siesta_perfmodel::{platform_a, Machine, MpiFlavor};
use siesta_workloads::{ProblemSize, Program};

/// Serializes tests: pool width, profiling switch, and the metrics
/// registry are process-global.
static WIDTH_LOCK: Mutex<()> = Mutex::new(());

/// Both per-run collectors.
const OBSERVE_ALL: Observe = Observe { comm_matrix: true, sim_profile: true };

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
    schedule_hash: u64,
}

fn sim_profile_at(width: usize, program: Program) -> SimArtifacts {
    siesta_obs::reset_metrics();
    siesta_obs::drain_spans();
    let (_, traced) = siesta_par::with_threads(width, || {
        let siesta = Siesta::new(SiestaConfig { observe: OBSERVE_ALL, ..SiestaConfig::default() });
        siesta.synthesize_run(machine(), 16, move |r| program.body(ProblemSize::Tiny)(r))
    });
    let snap = traced.sim_profile.as_ref().expect("traced run returns its profiler").snapshot();
    let matrix = traced.comm_matrix.as_ref().expect("traced run returns its matrix").snapshot();
    SimArtifacts {
        vt_trace: snap.chrome_trace_json(256),
        critical: siesta_mpisim::critical_path(&snap).render(),
        comm_matrix: matrix.to_json(),
        schedule_hash: traced.schedule_hash(),
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
        // Observers never move virtual time: the observed traced run
        // keeps the unobserved one's schedule...
        let (_, unobserved) = Siesta::new(SiestaConfig::default())
            .trace_run(machine(), 16, move |r| program.body(ProblemSize::Tiny)(r));
        assert_eq!(
            baseline.schedule_hash,
            unobserved.schedule_hash(),
            "{}: observing the traced run moved its schedule",
            program.name()
        );
        // ...and an observed untraced world (spans on, both collectors)
        // is the bare program run.
        siesta_obs::set_profiling_enabled(true);
        let observed = World::new(machine(), 16)
            .observe(OBSERVE_ALL)
            .run(program.body(ProblemSize::Tiny));
        siesta_obs::set_profiling_enabled(false);
        siesta_obs::drain_spans();
        let bare = program.run(machine(), 16, ProblemSize::Tiny);
        assert!(observed.comm_matrix.is_some() && observed.sim_profile.is_some());
        assert_eq!(
            format!("{:?}", observed.per_rank),
            format!("{:?}", bare.per_rank),
            "{}: observing the untraced run changed its statistics",
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

/// Proxy wire bytes, comm-matrix JSON and virtual-time trace of one
/// synthesis with both collectors on.
fn observed_synthesis(program: Program, nprocs: usize) -> (Vec<u8>, String, String) {
    let siesta = Siesta::new(SiestaConfig { observe: OBSERVE_ALL, ..SiestaConfig::default() });
    let (synthesis, traced) =
        siesta.synthesize_run(machine(), nprocs, move |r| program.body(ProblemSize::Tiny)(r));
    let matrix = traced.comm_matrix.expect("traced run returns its matrix").snapshot();
    let profile = traced.sim_profile.expect("traced run returns its profiler").snapshot();
    (
        siesta_codegen::wire::to_bytes(&synthesis.program),
        matrix.to_json(),
        profile.chrome_trace_json(256),
    )
}

#[test]
fn concurrent_syntheses_keep_their_own_observers() {
    // Holds the lock because the runs' `ObsHook`s feed the process-wide
    // metrics registry that this binary's other tests read.
    let _g = WIDTH_LOCK.lock().unwrap();
    let runs = [(Program::Cg, 16), (Program::Bt, 9)];
    let alone: Vec<_> = runs.iter().map(|&(p, n)| observed_synthesis(p, n)).collect();
    let start = Barrier::new(runs.len());
    let together: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = runs
            .iter()
            .map(|&(p, n)| {
                let start = &start;
                s.spawn(move || {
                    start.wait();
                    observed_synthesis(p, n)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("synthesis thread")).collect()
    });
    for (&(program, nprocs), (a, t)) in runs.iter().zip(alone.iter().zip(&together)) {
        let name = format!("{}/{nprocs}", program.name());
        assert!(t.0 == a.0, "{name}: wire bytes differ when run concurrently");
        assert!(t.1 == a.1, "{name}: comm matrix differs when run concurrently");
        assert!(t.2 == a.2, "{name}: virtual-time trace differs when run concurrently");
        assert!(a.1.contains(&format!("\"nranks\":{nprocs},")), "{name}: matrix of another run");
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
