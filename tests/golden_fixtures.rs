//! Golden-fixture tests: small recorded traces are checked in under
//! `tests/fixtures/`, together with snapshots of what the pipeline must
//! produce from them. Any unintended change to trace recording, table
//! merging, grammar construction, proxy search, or C emission shows up as
//! a snapshot diff.
//!
//! Regenerate after an *intended* change with:
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test -p siesta-bench --test golden_fixtures
//! git diff tests/fixtures/   # review what actually changed
//! ```
//!
//! See `tests/README.md` for the full workflow.

use std::path::{Path, PathBuf};

use siesta_codegen::emit_c;
use siesta_core::{Siesta, SiestaConfig};
use siesta_perfmodel::{platform_a, Machine, MpiFlavor};
use siesta_trace::{store_from_bytes, store_to_bytes, text, StreamedGlobal};
use siesta_workloads::{ProblemSize, Program};

fn fixtures_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures")
}

fn updating() -> bool {
    std::env::var_os("UPDATE_GOLDEN").is_some_and(|v| v != "0" && !v.is_empty())
}

/// The fixture set: small, fast, and covering three program shapes
/// (power-of-two NPB, square-grid NPB, wavefront sweep).
const CASES: [(&str, Program, usize); 3] = [
    ("cg4_tiny", Program::Cg, 4),
    ("bt4_tiny", Program::Bt, 4),
    ("sweep3d6_tiny", Program::Sweep3d, 6),
];

fn record(program: Program, nranks: usize) -> StreamedGlobal {
    let machine = Machine::new(platform_a(), MpiFlavor::OpenMpi);
    let siesta = Siesta::new(SiestaConfig::default());
    let (trace, _) =
        siesta.trace_run(machine, nranks, move |r| program.body(ProblemSize::Tiny)(r));
    siesta.merge_streamed(trace)
}

/// The snapshot of a synthesis that must stay stable: structure counts
/// plus the fit error, in a fixed text format.
fn stats_snapshot(s: &siesta_core::SynthesisStats) -> String {
    format!(
        "terminals: {} (comm {}, compute {})\n\
         rules: {}\n\
         mains: {}\n\
         grammar_size: {}\n\
         merge_rounds: {}\n\
         raw_trace_bytes: {}\n\
         size_c_bytes: {}\n\
         mean_fit_error: {:.9}\n",
        s.num_terminals,
        s.num_comm_terminals,
        s.num_compute_terminals,
        s.num_rules,
        s.num_mains,
        s.grammar_size,
        s.merge_rounds,
        s.raw_trace_bytes,
        s.size_c_bytes,
        s.mean_fit_error
    )
}

fn check_or_update(path: &Path, actual: &[u8], what: &str) {
    if updating() {
        std::fs::write(path, actual).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        eprintln!("updated {}", path.display());
        return;
    }
    let expected = std::fs::read(path).unwrap_or_else(|e| {
        panic!(
            "{}: {e}\nmissing golden fixture — run UPDATE_GOLDEN=1 cargo test -p \
             siesta-bench --test golden_fixtures to (re)generate",
            path.display()
        )
    });
    assert!(
        expected == actual,
        "{what} diverges from golden {}\n\
         If the change is intended, regenerate with UPDATE_GOLDEN=1 and review the diff \
         (see tests/README.md).",
        path.display()
    );
}

/// All nine paper workloads, synthesized end to end at 16 ranks: the wire
/// bytes, emitted C, and synthesis report must match the checked-in
/// snapshots at every pool width. This pins the *absolute*
/// artifact bytes (the cross-width tests in `differential_parallel.rs` only
/// pin them relative to the width-1 run), so a rework of the grammar hot
/// path — arena Sequitur, parallel clustering, the pairwise merge tree —
/// cannot silently change synthesized output.
#[test]
fn all_nine_workloads_match_golden_at_every_width_and_memo() {
    use siesta_codegen::wire;

    let dir = fixtures_dir().join("all9");
    if updating() {
        std::fs::create_dir_all(&dir).unwrap();
    }
    let machine = Machine::new(platform_a(), MpiFlavor::OpenMpi);
    let run = |width: usize, program: Program| {
        siesta_par::with_threads(width, || {
            let siesta = Siesta::new(SiestaConfig::default());
            let (synthesis, _) =
                siesta.synthesize_run(machine, 16, move |r| program.body(ProblemSize::Tiny)(r));
            (
                wire::to_bytes(&synthesis.program),
                emit_c(&synthesis.program),
                stats_snapshot(&synthesis.stats),
            )
        })
    };
    for program in Program::ALL {
        let name = program.name();
        // The width-1 run is the pinned artifact...
        let (wire_bytes, c_source, stats) = run(1, program);
        check_or_update(
            &dir.join(format!("{name}16.wire.bin")),
            &wire_bytes,
            &format!("{name}: wire bytes"),
        );
        check_or_update(
            &dir.join(format!("{name}16.proxy.c")),
            c_source.as_bytes(),
            &format!("{name}: emitted C source"),
        );
        check_or_update(
            &dir.join(format!("{name}16.stats.txt")),
            stats.as_bytes(),
            &format!("{name}: synthesis stats"),
        );
        // ...and every other width must reproduce it byte for byte
        // (checked in memory, so a regeneration run still proves width
        // independence before writing anything bad).
        for width in [1usize, 2, 8] {
            let what = format!("{name}: {width} threads");
            let (w, c, s) = run(width, program);
            assert_eq!(w, wire_bytes, "{what}: wire bytes diverge from golden");
            assert_eq!(c, c_source, "{what}: C source diverges from golden");
            assert_eq!(s, stats, "{what}: synthesis report diverges from golden");
        }
    }
}

#[test]
fn recorded_traces_match_golden() {
    let dir = fixtures_dir();
    for (name, program, nranks) in CASES {
        let sg = record(program, nranks);
        check_or_update(
            &dir.join(format!("{name}.trace.bin")),
            &store_to_bytes(&sg),
            &format!("{name}: recorded trace bytes"),
        );
        check_or_update(
            &dir.join(format!("{name}.trace.txt")),
            text::render(&sg.to_global_trace()).as_bytes(),
            &format!("{name}: rendered trace"),
        );
    }
}

#[test]
fn synthesis_from_checked_in_traces_matches_golden() {
    let dir = fixtures_dir();
    let machine = Machine::new(platform_a(), MpiFlavor::OpenMpi);
    for (name, program, nranks) in CASES {
        // Synthesize from the *checked-in* trace, through the same lift
        // path a live run takes, so this snapshot is insulated from
        // recording changes (those fail the test above instead). When
        // updating, regenerate the trace first.
        let trace_path = dir.join(format!("{name}.trace.bin"));
        let sg = if updating() {
            let sg = record(program, nranks);
            std::fs::write(&trace_path, store_to_bytes(&sg)).unwrap();
            sg
        } else {
            let bytes = std::fs::read(&trace_path).unwrap_or_else(|e| {
                panic!(
                    "{}: {e}\nrun UPDATE_GOLDEN=1 cargo test -p siesta-bench --test \
                     golden_fixtures first",
                    trace_path.display()
                )
            });
            store_from_bytes(&bytes).expect("checked-in trace parses")
        };
        let synthesis =
            Siesta::new(SiestaConfig::default()).synthesize_streamed_global(sg, &machine);
        check_or_update(
            &dir.join(format!("{name}.proxy.c")),
            emit_c(&synthesis.program).as_bytes(),
            &format!("{name}: emitted C source"),
        );
        check_or_update(
            &dir.join(format!("{name}.stats.txt")),
            stats_snapshot(&synthesis.stats).as_bytes(),
            &format!("{name}: synthesis stats"),
        );
    }
}

/// Every strict prefix and every single-bit flip of a checked-in trace
/// store is refused: the magic and version are checked first, and the
/// checksum covers every byte after them.
#[test]
fn trace_store_refuses_every_truncation_and_bit_flip() {
    let bytes = std::fs::read(fixtures_dir().join("cg4_tiny.trace.bin")).unwrap();
    assert!(store_from_bytes(&bytes).is_ok());
    for cut in 0..bytes.len() {
        assert!(store_from_bytes(&bytes[..cut]).is_err(), "truncation to {cut} bytes accepted");
    }
    let mut flipped = bytes.clone();
    for bit in 0..bytes.len() * 8 {
        flipped[bit / 8] ^= 1 << (bit % 8);
        assert!(store_from_bytes(&flipped).is_err(), "flip of bit {bit} accepted");
        flipped[bit / 8] ^= 1 << (bit % 8);
    }
}

/// Every strict prefix of a checked-in proxy is refused, and every
/// single-bit flip decodes to a program or an error, never a panic.
#[test]
fn proxy_decoder_survives_every_truncation_and_bit_flip() {
    use siesta_codegen::wire::from_bytes;

    let bytes = std::fs::read(fixtures_dir().join("all9/CG16.wire.bin")).unwrap();
    assert!(from_bytes(&bytes).is_ok());
    for cut in 0..bytes.len() {
        let decoded = std::panic::catch_unwind(|| from_bytes(&bytes[..cut]).is_err());
        assert_eq!(decoded.ok(), Some(true), "truncation to {cut} bytes not refused");
    }
    let mut flipped = bytes.clone();
    for bit in 0..bytes.len() * 8 {
        flipped[bit / 8] ^= 1 << (bit % 8);
        let decoded = std::panic::catch_unwind(|| from_bytes(&flipped).is_ok());
        assert!(decoded.is_ok(), "flip of bit {bit} panicked the decoder");
        flipped[bit / 8] ^= 1 << (bit % 8);
    }
}
