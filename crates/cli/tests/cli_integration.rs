//! End-to-end tests of the `siesta` binary itself.

use std::path::PathBuf;
use std::process::{Command, Output};

fn siesta(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_siesta"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("siesta_cli_test_{}_{name}", std::process::id()))
}

#[test]
fn help_and_list_work() {
    let out = siesta(&["help"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("synthesize"));
    assert!(text.contains("retarget"));

    let out = siesta(&["list"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("Sweep3d"));
    assert!(text.contains("communicator management"));
}

#[test]
fn full_cli_round_trip() {
    let proxy = tmp("mg.siesta");
    let c_file = tmp("mg.c");
    // synthesize
    let out = siesta(&[
        "synthesize",
        "--program",
        "MG",
        "--nprocs",
        "8",
        "--size",
        "tiny",
        "--out",
        proxy.to_str().unwrap(),
        "--emit-c",
        c_file.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(proxy.exists());
    let c = std::fs::read_to_string(&c_file).unwrap();
    assert!(c.contains("MPI_Init"));

    // inspect
    let out = siesta(&["inspect", "--proxy", proxy.to_str().unwrap()]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("ranks:         8"));
    assert!(text.contains("MPI_Sendrecv"));

    // replay on another platform
    let out = siesta(&["replay", "--proxy", proxy.to_str().unwrap(), "--platform", "B"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("execution time"));

    // compare against the original
    let out = siesta(&[
        "compare",
        "--proxy",
        proxy.to_str().unwrap(),
        "--program",
        "MG",
        "--size",
        "tiny",
    ]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("time error"));
    assert!(text.contains("per metric"));

    // compare observes no run, so it refuses an observer option before
    // doing any work.
    let matrix = tmp("mg_compare_cm.json");
    let out = siesta(&[
        "compare",
        "--proxy",
        proxy.to_str().unwrap(),
        "--program",
        "MG",
        "--size",
        "tiny",
        "--comm-matrix",
        matrix.to_str().unwrap(),
    ]);
    assert!(!out.status.success(), "compare accepted --comm-matrix");
    assert!(!String::from_utf8_lossy(&out.stdout).contains("time error"));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--comm-matrix"));
    assert!(!matrix.exists());

    std::fs::remove_file(&proxy).ok();
    std::fs::remove_file(&c_file).ok();
}

#[test]
fn trace_prints_the_event_table() {
    let out = siesta(&["trace", "--program", "IS", "--nprocs", "8", "--size", "tiny"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("global terminal table"));
    assert!(text.contains("Alltoallv"));
    assert!(text.contains("rank 0"));
}

#[test]
fn errors_are_reported_cleanly() {
    // Unknown program.
    let out = siesta(&["synthesize", "--program", "FT"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown program"));

    // Invalid rank count for BT.
    let out = siesta(&["synthesize", "--program", "BT", "--nprocs", "7"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot run on 7 ranks"));

    // Unknown option.
    let out = siesta(&["list", "--bogus", "1"]);
    assert!(!out.status.success() || !String::from_utf8_lossy(&out.stderr).is_empty());

    // Missing proxy file.
    let out = siesta(&["inspect", "--proxy", "/nonexistent.siesta"]);
    assert!(!out.status.success());

    // Garbage proxy file.
    let junk = tmp("junk.siesta");
    std::fs::write(&junk, b"not a siesta file at all").unwrap();
    let out = siesta(&["inspect", "--proxy", junk.to_str().unwrap()]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("bad magic"));
    std::fs::remove_file(&junk).ok();
}

#[test]
fn retarget_via_cli() {
    // A fully-SPMD program: IS (collectives only... plus scan) is SPMD but
    // its alltoallv counts are per-rank — expect a clean refusal. MG has
    // rank-dependent halos — also refused. Build a proxy that retargets:
    // use CG at 4 ranks? CG has diagonal branches. Simplest: verify the
    // refusal path is clean and informative.
    let proxy = tmp("is.siesta");
    let out = siesta(&[
        "synthesize",
        "--program",
        "IS",
        "--nprocs",
        "8",
        "--size",
        "tiny",
        "--out",
        proxy.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    let retargeted = tmp("is16.siesta");
    let out = siesta(&[
        "retarget",
        "--proxy",
        proxy.to_str().unwrap(),
        "--nprocs",
        "16",
        "--out",
        retargeted.to_str().unwrap(),
    ]);
    // IS is refused (per-rank alltoallv counts) with a precise reason.
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("non-uniform") || err.contains("rank"),
        "unexpected refusal message: {err}"
    );
    std::fs::remove_file(&proxy).ok();
}

#[test]
fn offline_trace_to_synthesis_workflow() {
    let trace_file = tmp("cg.siestatrace");
    let proxy = tmp("cg_offline.siesta");
    let out = siesta(&[
        "trace",
        "--program",
        "CG",
        "--nprocs",
        "8",
        "--size",
        "tiny",
        "--out",
        trace_file.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(trace_file.exists());

    let out = siesta(&[
        "synthesize",
        "--from-trace",
        trace_file.to_str().unwrap(),
        "--out",
        proxy.to_str().unwrap(),
        "--stats",
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(proxy.exists());
    // The store holds the lifted grammars, so nothing is rebuilt or lifted.
    let stats = String::from_utf8_lossy(&out.stdout);
    for counter in ["grammar.rules_created", "grammar.memo.stream_hits"] {
        assert!(!stats.contains(counter), "--from-trace reported {counter}:\n{stats}");
    }

    // The same bytes as a live synthesis of the same run, whose
    // --trace-store is the same file `trace --out` wrote.
    let live = tmp("cg_live.siesta");
    let live_store = tmp("cg_live.siestatrace");
    let out = siesta(&[
        "synthesize", "--program", "CG", "--nprocs", "8", "--size", "tiny",
        "--out", live.to_str().unwrap(), "--trace-store", live_store.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(std::fs::read(&proxy).unwrap(), std::fs::read(&live).unwrap());
    assert_eq!(std::fs::read(&trace_file).unwrap(), std::fs::read(&live_store).unwrap());
    std::fs::remove_file(&live).ok();
    std::fs::remove_file(&live_store).ok();

    // The flat-sequence store of format version 1 is refused, not read.
    let v1 = tmp("v1.siestatrace");
    let mut header = b"SIESTC1\0".to_vec();
    header.extend_from_slice(&1u32.to_le_bytes());
    header.extend_from_slice(&[0; 36]);
    std::fs::write(&v1, header).unwrap();
    let never = tmp("never.siesta");
    let out = siesta(&[
        "synthesize", "--from-trace", v1.to_str().unwrap(), "--out", never.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unsupported format version 1"), "unexpected message: {err}");
    assert!(!never.exists(), "output written from a version-1 store");
    std::fs::remove_file(&v1).ok();

    // The offline proxy replays like an online one.
    let out = siesta(&["replay", "--proxy", proxy.to_str().unwrap()]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("execution time"));

    // A .siesta file is not a .siestatrace file: clean rejection.
    let out = siesta(&[
        "synthesize",
        "--from-trace",
        proxy.to_str().unwrap(),
        "--out",
        tmp("bad.siesta").to_str().unwrap(),
    ]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("bad magic"));

    // Options that shape or observe a recording cannot apply to a saved
    // trace: each is refused instead of silently ignored, and nothing is
    // written.
    let extra = tmp("extra.siestatrace");
    let rejected = tmp("rejected.siesta");
    let trace_arg = trace_file.to_str().unwrap();
    let out_arg = rejected.to_str().unwrap();
    let extra_arg = extra.to_str().unwrap();
    for (opt, value) in [
        ("--program", "BT"),
        ("--nprocs", "7"),
        ("--size", "tiny"),
        ("--threshold", "0.5"),
        ("--stream-buf", "16"),
        ("--trace-store", extra_arg),
        ("--comm-matrix", extra_arg),
        ("--sim-trace-out", extra_arg),
    ] {
        let out = siesta(&["synthesize", "--from-trace", trace_arg, "--out", out_arg, opt, value]);
        assert!(!out.status.success(), "{opt} accepted with --from-trace");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(opt), "{opt}: unexpected message: {err}");
        assert!(!extra.exists() && !rejected.exists(), "{opt}: output written");
    }
    // In an empty directory, where --sim-profile's default trace path
    // would land.
    let cwd = tmp("from_trace_cwd");
    std::fs::create_dir_all(&cwd).unwrap();
    for flag in ["--sim-profile", "--critical-path"] {
        let out = Command::new(env!("CARGO_BIN_EXE_siesta"))
            .args(["synthesize", "--from-trace", trace_arg, "--out", out_arg, flag])
            .current_dir(&cwd)
            .output()
            .expect("binary runs");
        assert!(!out.status.success(), "{flag} accepted with --from-trace");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(flag), "{flag}: unexpected message: {err}");
        assert!(!rejected.exists(), "{flag}: output written");
        assert_eq!(std::fs::read_dir(&cwd).unwrap().count(), 0, "{flag}: output written");
    }
    std::fs::remove_dir(&cwd).ok();
    let out = siesta(&[
        "synthesize", "--from-trace", trace_arg, "--out", out_arg, "--trace-store", extra_arg,
        "--program", "BT", "--nprocs", "7", "--threshold", "0.5", "--stream-buf", "16",
    ]);
    assert!(!out.status.success());
    assert!(!extra.exists() && !rejected.exists());

    std::fs::remove_file(&trace_file).ok();
    std::fs::remove_file(&proxy).ok();
}

/// `.siesta` files that reference missing terminals or rules, derive a
/// rule from itself, or hold a count or rank range their bytes cannot
/// back. Each is encoded from a valid two-rank program over one barrier.
fn crafted_proxies() -> Vec<(&'static str, Vec<u8>)> {
    use siesta_codegen::{to_bytes, ProxyProgram, TerminalOp};
    use siesta_grammar::{MainSym, MergedMain, RSym, RankSet, Sym};
    use siesta_trace::CommEvent;

    let program = |rules: Vec<Vec<RSym>>, main: Sym| ProxyProgram {
        nranks: 2,
        terminals: vec![TerminalOp::Comm(CommEvent::Barrier { comm: 0 })],
        rules,
        mains: vec![MergedMain {
            ranks: RankSet::all(2),
            body: vec![MainSym { sym: main, exp: 1, ranks: RankSet::all(2) }],
        }],
        scale: 1.0,
        generated_on: "A/openmpi".into(),
    };
    let valid = to_bytes(&program(vec![], Sym::T(0)));
    // The main symbol's rank range is the last 8 bytes.
    let mut huge_range = valid.clone();
    let n = huge_range.len();
    huge_range[n - 4..].copy_from_slice(&4_294_967_294u32.to_le_bytes());
    // The terminal count follows the magic, version, nranks, scale and
    // the generated-on string.
    let mut huge_count = valid;
    let at = 8 + 1 + 4 + 8 + 4 + "A/openmpi".len();
    huge_count[at..at + 4].copy_from_slice(&0xFFFF_FFF0u32.to_le_bytes());
    vec![
        ("dangling-terminal", to_bytes(&program(vec![], Sym::T(7)))),
        ("dangling-rule", to_bytes(&program(vec![], Sym::N(3)))),
        ("self-rule", to_bytes(&program(vec![vec![RSym::once(Sym::N(0))]], Sym::N(0)))),
        ("huge-range", huge_range),
        ("huge-count", huge_count),
    ]
}

#[test]
fn crafted_proxies_are_refused_by_every_reader() {
    let c_out = tmp("crafted.c");
    for (name, bytes) in crafted_proxies() {
        let path = tmp(&format!("{name}.siesta"));
        std::fs::write(&path, bytes).unwrap();
        let proxy = path.to_str().unwrap();
        for args in [
            vec!["inspect", "--proxy", proxy],
            vec!["replay", "--proxy", proxy],
            vec!["emit-c", "--proxy", proxy, "--out", c_out.to_str().unwrap()],
        ] {
            // Under an address-space cap, so a decoder that sized an
            // allocation from the file fails here instead of exhausting
            // the host's memory.
            let out = Command::new("sh")
                .arg("-c")
                .arg("ulimit -v 4000000; exec \"$0\" \"$@\"")
                .arg(env!("CARGO_BIN_EXE_siesta"))
                .args(&args)
                .output()
                .expect("binary runs");
            let err = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{name}: {} exited with {err}", args[0]);
            assert!(err.contains(proxy), "{name}: {}: unexpected message: {err}", args[0]);
            assert!(!c_out.exists(), "{name}: C written from a corrupt proxy");
        }
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn threads_flag_is_validated_and_output_invariant() {
    // --threads 0 is rejected up front.
    let out = siesta(&["list", "--threads", "0"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--threads must be at least 1"));
    let out = siesta(&["list", "--threads", "two"]);
    assert!(!out.status.success());

    // The same synthesis at --threads 1 and --threads 4 writes
    // byte-identical .siesta files: the CLI face of the determinism
    // contract (the in-process sweep lives in tests/differential_parallel.rs).
    let mut outputs = Vec::new();
    for threads in ["1", "4"] {
        let proxy = tmp(&format!("is_t{threads}.siesta"));
        let out = siesta(&[
            "synthesize",
            "--program",
            "IS",
            "--nprocs",
            "8",
            "--size",
            "tiny",
            "--threads",
            threads,
            "--out",
            proxy.to_str().unwrap(),
        ]);
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        outputs.push(std::fs::read(&proxy).unwrap());
        std::fs::remove_file(&proxy).ok();
    }
    assert_eq!(outputs[0], outputs[1], "--threads changed the synthesized bytes");
}

#[test]
fn observing_a_synthesis_leaves_its_artifacts_unchanged() {
    // The observer options add collectors beside the recorder; they must
    // not change what it records.
    const ARTIFACTS: [&str; 3] = ["siesta", "c", "siestatrace"];
    let synthesize = |name: &str, observers: &[&str]| {
        let paths = ARTIFACTS.map(|ext| tmp(&format!("cg8_{name}.{ext}")));
        let [proxy, c_file, store] = paths.each_ref().map(|p| p.to_str().unwrap());
        let mut args = vec!["synthesize", "--program", "CG", "--nprocs", "8", "--size", "tiny"];
        args.extend(["--out", proxy, "--emit-c", c_file, "--trace-store", store]);
        args.extend_from_slice(observers);
        let out = siesta(&args);
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        paths.map(|p| {
            let bytes = std::fs::read(&p).unwrap();
            std::fs::remove_file(&p).ok();
            bytes
        })
    };
    let plain = synthesize("plain", &[]);
    let outputs = ["profile.json", "cm.json", "vt.json"].map(|f| tmp(&format!("cg8_{f}")));
    let [profile, matrix, vt] = outputs.each_ref().map(|p| p.to_str().unwrap());
    let observed = synthesize(
        "observed",
        &["--profile", profile, "--comm-matrix", matrix, "--sim-profile", "--sim-trace-out", vt],
    );
    for path in &outputs {
        assert!(path.exists(), "{} not written", path.display());
        std::fs::remove_file(path).ok();
    }
    for ((ext, a), b) in ARTIFACTS.iter().zip(&plain).zip(&observed) {
        assert!(a == b, "observing the run changed its .{ext} output");
    }
}

#[test]
fn stats_alone_records_the_proxy_fit_error() {
    // The fit-error histogram is a pipeline metric, not a profiling one:
    // `--stats` without `--profile` must report one sample per compute
    // terminal.
    let proxy = tmp("cg_stats.siesta");
    let out = siesta(&[
        "synthesize",
        "--program",
        "cg",
        "--nprocs",
        "16",
        "--size",
        "tiny",
        "--stats",
        "--out",
        proxy.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    std::fs::remove_file(&proxy).ok();
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text
        .lines()
        .find(|l| l.trim_start().starts_with("proxy.fit_error_bp"))
        .unwrap_or_else(|| panic!("no proxy.fit_error_bp line in:\n{text}"));
    let count: u64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .unwrap_or_else(|| panic!("unparsable histogram line: {line}"));
    assert!(count > 0, "proxy.fit_error_bp recorded nothing under --stats: {line}");
}

#[test]
fn simulate_writes_every_observer_artifact_at_any_width() {
    let mut artifacts = Vec::new();
    for threads in ["1", "2"] {
        let vt = tmp(&format!("sim64_vt_t{threads}.json"));
        let matrix = tmp(&format!("sim64_cm_t{threads}.json"));
        let out = siesta(&[
            "simulate",
            "--sim-ranks",
            "64",
            "--sim-profile",
            "--critical-path",
            "--sim-trace-out",
            vt.to_str().unwrap(),
            "--comm-matrix",
            matrix.to_str().unwrap(),
            "--threads",
            threads,
        ]);
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(text.contains("MPI_Sendrecv"), "no wait/transfer breakdown:\n{text}");
        assert!(text.contains("critical path:"), "no critical path:\n{text}");
        artifacts.push((std::fs::read(&vt).unwrap(), std::fs::read(&matrix).unwrap()));
        std::fs::remove_file(&vt).ok();
        std::fs::remove_file(&matrix).ok();
    }
    assert!(artifacts[0].0 == artifacts[1].0, "virtual-time trace differs across --threads");
    assert!(artifacts[0].1 == artifacts[1].1, "comm matrix differs across --threads");
    let matrix = String::from_utf8_lossy(&artifacts[0].1);
    assert!(matrix.contains("\"nranks\":64,") && matrix.contains("\"p2p\""), "{matrix}");
}

#[test]
fn simulate_reports_ring_capped_profiles() {
    // SIESTA_SIM_EVT_CAP bounds each rank's timeline to its newest events;
    // the breakdown counts what was dropped, and the critical path falls
    // back to program order where a producer was lost.
    let out = Command::new(env!("CARGO_BIN_EXE_siesta"))
        .args(["simulate", "--sim-ranks", "64", "--critical-path"])
        .env("SIESTA_SIM_EVT_CAP", "8")
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("(ring-capped: 2112 events dropped"), "{text}");
    assert!(text.contains("program-order fallback"), "{text}");
}

#[test]
fn profiled_replay_counts_its_mpi_calls() {
    // Any world run while spans are recorded feeds the mpi.* metrics,
    // including a replayed proxy.
    let proxy = tmp("is_replay.siesta");
    let profile = tmp("is_replay_profile.json");
    let out = siesta(&[
        "synthesize",
        "--program",
        "IS",
        "--nprocs",
        "8",
        "--size",
        "tiny",
        "--out",
        proxy.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let out = siesta(&[
        "replay",
        "--proxy",
        proxy.to_str().unwrap(),
        "--profile",
        profile.to_str().unwrap(),
        "--stats",
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    std::fs::remove_file(&proxy).ok();
    std::fs::remove_file(&profile).ok();
    let text = String::from_utf8_lossy(&out.stdout);
    let calls: Vec<u64> = text
        .lines()
        .filter(|l| l.trim_start().starts_with("mpi.calls."))
        .filter_map(|l| l.split_whitespace().nth(1).and_then(|c| c.parse().ok()))
        .collect();
    assert!(calls.iter().any(|&c| c > 0), "no mpi.calls.* counted under --profile:\n{text}");
}
