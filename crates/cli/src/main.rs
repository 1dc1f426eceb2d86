//! `siesta` — command-line front end for the proxy-app synthesizer.
//!
//! ```text
//! siesta synthesize --program BT --nprocs 16 --size small --out bt.siesta
//! siesta replay     --proxy bt.siesta --platform B --flavor mpich
//! siesta compare    --proxy bt.siesta --program BT --size small
//! siesta emit-c     --proxy bt.siesta --out bt_proxy.c
//! siesta inspect    --proxy bt.siesta
//! siesta list
//! ```

mod args;

use std::path::Path;
use std::process::ExitCode;

use args::Args;
use siesta_codegen::{emit_c, replay, wire, TerminalOp};
use siesta_core::{human_bytes, human_ms, Siesta, SiestaConfig};
use siesta_mpisim::{Observe, RunStats, World};
use siesta_perfmodel::{platform_by_name, Machine, MpiFlavor};
use siesta_trace::TraceConfig;
use siesta_workloads::{ProblemSize, Program};

const USAGE: &str = "\
siesta — synthesize proxy applications for MPI programs (CLUSTER'24 reproduction)

USAGE:
    siesta <command> [--option value ...]

COMMANDS:
    synthesize   Trace a workload and generate a proxy-app (.siesta file)
                 --program <name>    one of the nine evaluation programs
                 --nprocs <n>        rank count (default 16)
                 --size <s>          tiny | small | reference (default small)
                 --platform <p>      A | B | C (default A)
                 --flavor <f>        openmpi | mpich | mvapich (default openmpi)
                 --scale <k>         shrinking factor (default 1)
                 --threshold <t>     compute clustering threshold (default 0.15)
                 --out <file>        output .siesta path (default <prog>.siesta)
                 --emit-c <file>     also write the C source
                 --from-trace <f>    synthesize from a saved .siestatrace
                                     instead of running the program (takes
                                     only --platform, --flavor, --scale,
                                     --out and --emit-c)
                 --stream-buf <n>    trace ingest buffer, in event ids per
                                     rank (default 4096); a longer stream
                                     drains into an online Sequitur
                 --trace-store <f>   also write the merged trace as a
                                     .siestatrace store of its grammars
                 observer options    observe the traced run (see below)

    replay       Execute a generated proxy-app on a chosen machine
                 --proxy <file>  [--platform p] [--flavor f]

    compare      Replay a proxy next to its original program and report errors
                 --proxy <file> --program <name> [--size s] [--platform p] [--flavor f]

    emit-c       Write the C source of a generated proxy-app
                 --proxy <file> --out <file.c>

    retarget     Re-scale a fully-SPMD proxy to a different rank count
                 --proxy <file> --nprocs <n> --out <file>

    inspect      Print a proxy-app's structure summary
                 --proxy <file>

    trace        Trace a workload; print the merged event table or save it
                 as a store of the merged grammars (.siestatrace)
                 --program <name> [--nprocs n] [--size s] [--platform p] [--flavor f]
                 [--out <file.siestatrace>] [--stream-buf <n>] [observer options]

    simulate     Sweep the event-driven simulator over rank counts; report
                 virtual time, wall time, ranks/s, peak RSS, schedule hash
                 --sim-ranks <list>  comma-separated counts, k/m binary
                                     suffixes ok (e.g. 512,4k,64k,1m);
                                     default 4096
                 --program <name>    evaluation program to sweep (counts
                                     must satisfy its grid constraints), or
                                     omit for the built-in 2D halo-exchange
                                     microkernel (any count)
                 --iters <n>         halo steps (default 10)
                 --face-bytes <b>    halo face payload bytes (default 4096)
                 --size <s>          program problem size (default tiny)
                 [--platform p]      default B (unbounded rank capacity)
                 [--flavor f]
                 observer options    observe the sweep's last rank count

    list         Show available programs, platforms, and MPI flavors

OBSERVER OPTIONS (synthesize, trace and simulate; other commands refuse them):
    --comm-matrix <f>   write the per-rank-pair communication matrix (JSON:
                        p2p send counts/bytes, collective contribution
                        bytes) of the observed run
    --sim-profile       record per-rank virtual-time timelines; prints the
                        per-call-class wait/transfer breakdown and writes
                        the virtual-time Chrome trace (one track per rank,
                        strided above 256 ranks)
    --sim-trace-out <f> virtual-time trace path (implies --sim-profile;
                        default sim-trace.json)
    --critical-path     extract the longest virtual-time dependency chain
                        (send→recv matches, collective joins, wait
                        completions) and print it with a per-rank
                        blocked/busy breakdown (implies timeline recording)

GLOBAL OPTIONS (accepted by every command):
    --threads <n>       worker threads for the parallel phases: per-rank
                        Sequitur, QP batch solves, table-merge rounds
                        (default: all cores; 1 forces the sequential path —
                        output is bit-identical either way)
    --log-level <l>     error | warn | info | debug | trace | off
    --profile <file>    write a Chrome trace (chrome://tracing / Perfetto)
    --obs-cap <n>       bound the flight recorder to n spans per thread
                        (ring buffer: oldest spans overwritten, dropped
                        count reported; default unbounded, env SIESTA_OBS_CAP)
    --stats             print the per-phase span and metrics report
    --quiet             silence all logging

ENVIRONMENT:
    SIESTA_LOG              default log level
    SIESTA_OBS_CAP          default --obs-cap
    SIESTA_OBS_CANONICAL=1  timing-free canonical trace/report output
                            (byte-identical at any --threads width)
    SIESTA_SIM_EVT_CAP      bound --sim-profile to n events per rank (ring
                            buffer, exact dropped count; default unbounded)
";

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() || argv[0] == "--help" || argv[0] == "help" {
        print!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    match run(argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("run `siesta help` for usage");
            ExitCode::FAILURE
        }
    }
}

/// Options accepted by every command (observability + parallelism).
const GLOBAL_OPTS: &[&str] = &[
    "log-level", "obs-cap", "profile", "quiet", "stats", "threads",
];
/// Options that take no value, whichever commands accept them.
const FLAGS: &[&str] = &["quiet", "stats", "sim-profile", "critical-path"];

/// Options that ask for per-run collectors beside a traced or simulated
/// run's hook (see [`Observers`]). Only `synthesize`, `trace` and `simulate` take them.
const OBSERVER_OPTS: &[&str] = &["comm-matrix", "sim-profile", "sim-trace-out", "critical-path"];

/// `check_allowed` including the global observability options.
fn check_cmd_opts(args: &Args, cmd_opts: &[&str]) -> Result<(), String> {
    let mut allowed: Vec<&str> = cmd_opts.to_vec();
    allowed.extend_from_slice(GLOBAL_OPTS);
    args.check_allowed(&allowed)
}

/// What one command's [`OBSERVER_OPTS`] ask for: the collectors its run
/// records into, and where their artifacts go.
struct Observers {
    observe: Observe,
    comm_matrix_path: Option<String>,
    /// The virtual-time Chrome trace is written only when asked for
    /// explicitly or via the full `--sim-profile`; `--critical-path`
    /// alone records the timelines without writing them.
    sim_trace_path: Option<String>,
    critical_path: bool,
}

impl Observers {
    /// `check_cmd_opts` with the observer options allowed too, then read
    /// them, checking every output path before any work.
    fn parse(args: &Args, cmd_opts: &[&str]) -> Result<Observers, String> {
        check_cmd_opts(args, &[cmd_opts, OBSERVER_OPTS].concat())?;
        let comm_matrix_path = args.get("comm-matrix").map(str::to_string);
        let sim_trace_path = (args.get("sim-trace-out").is_some() || args.get_flag("sim-profile"))
            .then(|| args.get_or("sim-trace-out", "sim-trace.json"));
        for path in comm_matrix_path.iter().chain(&sim_trace_path) {
            check_writable_dest(path)?;
        }
        let critical_path = args.get_flag("critical-path");
        Ok(Observers {
            observe: Observe {
                comm_matrix: comm_matrix_path.is_some(),
                sim_profile: sim_trace_path.is_some() || critical_path,
            },
            comm_matrix_path,
            sim_trace_path,
            critical_path,
        })
    }

    /// Write the artifacts of the observed `run`, after the command's own
    /// output. Each collector is dropped once it is read.
    fn write(&self, run: RunStats) -> Result<(), String> {
        if let (Some(path), Some(matrix)) =
            (&self.comm_matrix_path, run.comm_matrix.map(|m| m.snapshot()))
        {
            std::fs::write(path, matrix.to_json()).map_err(|e| format!("{path}: {e}"))?;
            siesta_obs::info!("communication matrix ({} ranks) written to {path}", matrix.nranks);
        }
        if let Some(snap) = run.sim_profile.map(|p| p.snapshot()) {
            if let Some(path) = &self.sim_trace_path {
                std::fs::write(path, snap.chrome_trace_json(SIM_TRACE_MAX_TRACKS))
                    .map_err(|e| format!("{path}: {e}"))?;
                siesta_obs::info!(
                    "virtual-time trace ({} of {} rank tracks, {} events) written to {path}",
                    snap.nranks.min(SIM_TRACE_MAX_TRACKS),
                    snap.nranks,
                    snap.events_total()
                );
            }
            print!("{}", snap.render_breakdown());
            if self.critical_path {
                print!("{}", siesta_mpisim::critical_path(&snap).render());
            }
        }
        Ok(())
    }
}

fn run(argv: Vec<String>) -> Result<(), String> {
    let args = Args::parse_with_flags(argv, FLAGS)?;

    // Observability setup, before any command output.
    if args.get_flag("quiet") {
        siesta_obs::log::set_off();
    } else if let Some(level) = args.get("log-level") {
        if !siesta_obs::set_level_from_str(level) {
            return Err(format!(
                "unknown log level {level} (error | warn | info | debug | trace | off)"
            ));
        }
    }
    let profile_path = args.get("profile").map(str::to_string);
    if let Some(path) = &profile_path {
        check_writable_dest(path)?;
        siesta_obs::set_profiling_enabled(true);
    }
    if args.get("obs-cap").is_some() {
        siesta_obs::set_span_capacity(args.get_usize("obs-cap", 0)?);
    }
    if args.get("threads").is_some() {
        let n = args.get_usize("threads", 0)?;
        if n == 0 {
            return Err("--threads must be at least 1".to_string());
        }
        siesta_par::set_threads(n);
    }

    let result = match args.command.as_str() {
        "synthesize" => cmd_synthesize(&args),
        "replay" => cmd_replay(&args),
        "compare" => cmd_compare(&args),
        "emit-c" => cmd_emit_c(&args),
        "retarget" => cmd_retarget(&args),
        "inspect" => cmd_inspect(&args),
        "trace" => cmd_trace(&args),
        "simulate" => cmd_simulate(&args),
        "list" => {
            check_cmd_opts(&args, &[])?;
            cmd_list()
        }
        other => Err(format!("unknown command {other}")),
    };

    // Export collected spans/metrics even on command failure: a profile of
    // the run up to the error is exactly what one wants to look at.
    // SIESTA_OBS_CANONICAL=1 selects the timing-free canonical exporters
    // (byte-identical across --threads widths; what the differential
    // tests compare).
    let canonical = std::env::var("SIESTA_OBS_CANONICAL").is_ok_and(|v| v == "1");
    let drained = siesta_obs::drain();
    if drained.dropped > 0 {
        siesta_obs::warn!(
            "flight recorder dropped {} spans (ring capacity {}); raise --obs-cap for a complete trace",
            drained.dropped,
            siesta_obs::span_capacity()
        );
    }
    let spans = drained.spans;
    if let Some(path) = profile_path {
        let json = if canonical {
            siesta_obs::chrome::chrome_trace_json_canonical(&spans)
        } else {
            siesta_obs::chrome::chrome_trace_json(&spans)
        };
        std::fs::write(&path, json).map_err(|e| format!("{path}: {e}"))?;
        siesta_obs::info!(
            "profile: {} spans written to {path} (load in chrome://tracing or ui.perfetto.dev)",
            spans.len()
        );
    }
    if args.get_flag("stats") {
        let metrics = siesta_obs::metrics_snapshot();
        let report = if canonical {
            siesta_obs::report::render_canonical_report(&spans, &metrics)
        } else {
            siesta_obs::report::render_report(&spans, &metrics)
        };
        print!("{report}");
    }
    result
}

/// Fail fast (and cleanly) when an output path's parent directory does not
/// exist, instead of surfacing a bare I/O error after minutes of work.
fn check_writable_dest(path: &str) -> Result<(), String> {
    let parent = Path::new(path).parent();
    if let Some(parent) = parent {
        if !parent.as_os_str().is_empty() && !parent.is_dir() {
            return Err(format!(
                "{path}: parent directory {} does not exist",
                parent.display()
            ));
        }
    }
    Ok(())
}

/// Rank-track cap for the exported virtual-time Chrome trace; above it
/// the rank axis is strided (every k-th rank) so huge worlds stay
/// loadable in a trace viewer. Elided tracks are counted in the trace's
/// `siestaVtMeta` block.
const SIM_TRACE_MAX_TRACKS: usize = 256;

fn parse_program(name: &str) -> Result<Program, String> {
    Program::parse(name).ok_or_else(|| {
        format!(
            "unknown program {name} (available: {})",
            Program::ALL.iter().map(|p| p.name()).collect::<Vec<_>>().join(", ")
        )
    })
}

fn parse_size(s: &str) -> Result<ProblemSize, String> {
    match s.to_ascii_lowercase().as_str() {
        "tiny" => Ok(ProblemSize::Tiny),
        "small" => Ok(ProblemSize::Small),
        "reference" | "ref" => Ok(ProblemSize::Reference),
        _ => Err(format!("unknown size {s} (tiny | small | reference)")),
    }
}

fn parse_machine(args: &Args) -> Result<Machine, String> {
    parse_machine_with_default(args, "A")
}

fn parse_machine_with_default(args: &Args, default_platform: &'static str) -> Result<Machine, String> {
    let platform_name = args.get_or("platform", default_platform);
    let platform = platform_by_name(&platform_name)
        .ok_or_else(|| format!("unknown platform {platform_name} (A | B | C)"))?;
    let flavor_name = args.get_or("flavor", "openmpi");
    let flavor = MpiFlavor::parse(&flavor_name)
        .ok_or_else(|| format!("unknown flavor {flavor_name} (openmpi | mpich | mvapich)"))?;
    Ok(Machine::new(platform, flavor))
}

/// Resolve the ingest buffer shared by `synthesize` and `trace`:
/// `--stream-buf`, validated the same way as the other numeric flags.
fn parse_stream_buf(args: &Args) -> Result<usize, String> {
    let explicit = match args.get("stream-buf") {
        Some(_) => Some(args.get_usize("stream-buf", 0)?),
        None => None,
    };
    siesta_trace::resolve_stream_buf(explicit)
}

/// Options of `synthesize` that shape a recording, so a saved trace
/// cannot honour them (nor the [`OBSERVER_OPTS`], which observe one).
const RECORDING_OPTS: &[&str] =
    &["program", "nprocs", "size", "threshold", "stream-buf", "trace-store"];

fn cmd_synthesize(args: &Args) -> Result<(), String> {
    let observers = Observers::parse(args, &[
        "program", "nprocs", "size", "platform", "flavor", "scale", "threshold", "out", "emit-c",
        "from-trace", "stream-buf", "trace-store",
    ])?;
    // Offline path: synthesize from a saved merged trace.
    if let Some(trace_path) = args.get("from-trace") {
        let mut refused = RECORDING_OPTS.iter().chain(OBSERVER_OPTS);
        if let Some(opt) = refused.find(|o| args.get(o).is_some() || args.get_flag(o)) {
            return Err(format!(
                "--{opt} configures or observes a recording; --from-trace synthesizes a \
                 saved one (it takes --platform, --flavor, --scale, --out and --emit-c)"
            ));
        }
        let machine = parse_machine(args)?;
        let scale = args.get_f64("scale", 1.0)?;
        let out = args.require("out")?;
        let sg = siesta_trace::load_trace(Path::new(trace_path))
            .map_err(|e| format!("{trace_path}: {e}"))?;
        let config = SiestaConfig { scale, ..SiestaConfig::default() };
        let synthesis = Siesta::new(config).synthesize_streamed_global(sg, &machine);
        siesta_obs::info!(
            "synthesized from {trace_path}: raw {} -> size_C {} ({:.0}x)",
            human_bytes(synthesis.stats.raw_trace_bytes),
            human_bytes(synthesis.stats.size_c_bytes),
            synthesis.stats.compression_ratio()
        );
        wire::save(&synthesis.program, Path::new(out)).map_err(|e| e.to_string())?;
        println!("{out}");
        if let Some(c_path) = args.get("emit-c") {
            std::fs::write(c_path, emit_c(&synthesis.program)).map_err(|e| e.to_string())?;
        }
        return Ok(());
    }
    let program = parse_program(args.require("program")?)?;
    let nprocs = args.get_usize("nprocs", 16)?;
    if !program.valid_nprocs(nprocs) {
        return Err(format!(
            "{} cannot run on {nprocs} ranks (BT/SP need squares; CG/MG/IS need powers of two)",
            program.name()
        ));
    }
    let size = parse_size(&args.get_or("size", "small"))?;
    let machine = parse_machine(args)?;
    let scale = args.get_f64("scale", 1.0)?;
    let threshold = args.get_f64("threshold", 0.15)?;
    let out = args.get_or("out", "").to_string();
    let out = if out.is_empty() {
        format!("{}.siesta", program.name().to_lowercase())
    } else {
        out
    };

    siesta_obs::info!(
        "tracing {} on {} ranks ({size:?}, {})...",
        program.name(),
        nprocs,
        machine.label()
    );
    let stream_buf = parse_stream_buf(args)?;
    let trace_store = args.get("trace-store").map(str::to_string);
    if let Some(p) = &trace_store {
        check_writable_dest(p)?;
    }
    let config = SiestaConfig {
        scale,
        trace: TraceConfig { cluster_threshold: threshold, stream_buf },
        observe: observers.observe,
        ..SiestaConfig::default()
    };
    let siesta = Siesta::new(config);
    let (trace, traced) = siesta.trace_run(machine, nprocs, move |r| program.body(size)(r));
    let sg = siesta.merge_streamed(trace);
    if let Some(p) = &trace_store {
        siesta_trace::write_store(&sg, Path::new(p)).map_err(|e| format!("{p}: {e}"))?;
        siesta_obs::info!("trace store written to {p}");
    }
    let synthesis = siesta.synthesize_streamed_global(sg, &machine);
    let s = &synthesis.stats;
    siesta_obs::info!("traced run: {}", human_ms(traced.elapsed_ns()));
    siesta_obs::info!(
        "raw trace {} -> size_C {} ({:.0}x); {} terminals, {} rules, {} main(s)",
        human_bytes(s.raw_trace_bytes),
        human_bytes(s.size_c_bytes),
        s.compression_ratio(),
        s.num_terminals,
        s.num_rules,
        s.num_mains
    );
    wire::save(&synthesis.program, Path::new(&out)).map_err(|e| e.to_string())?;
    println!("{out}");
    if let Some(c_path) = args.get("emit-c") {
        std::fs::write(c_path, emit_c(&synthesis.program)).map_err(|e| e.to_string())?;
        siesta_obs::info!("C source written to {c_path}");
    }
    observers.write(traced)
}

fn load_proxy(args: &Args) -> Result<siesta_codegen::ProxyProgram, String> {
    let path = args.require("proxy")?;
    wire::load(Path::new(path)).map_err(|e| format!("{path}: {e}"))
}

fn cmd_replay(args: &Args) -> Result<(), String> {
    check_cmd_opts(args, &["proxy", "platform", "flavor"])?;
    let program = load_proxy(args)?;
    let machine = parse_machine(args)?;
    siesta_obs::info!(
        "replaying {}-rank proxy (generated on {}, scale {}) on {}...",
        program.nranks,
        program.generated_on,
        program.scale,
        machine.label()
    );
    let stats = replay(&program, machine);
    println!("execution time: {}", human_ms(stats.elapsed_ns()));
    if program.scale > 1.0 {
        println!(
            "reproduced (x{}): {}",
            program.scale,
            human_ms(stats.elapsed_ns() * program.scale)
        );
    }
    Ok(())
}

fn cmd_compare(args: &Args) -> Result<(), String> {
    check_cmd_opts(args, &["proxy", "program", "size", "platform", "flavor"])?;
    let proxy_program = load_proxy(args)?;
    let program = parse_program(args.require("program")?)?;
    let size = parse_size(&args.get_or("size", "small"))?;
    let machine = parse_machine(args)?;
    let nprocs = proxy_program.nranks;
    siesta_obs::info!("running original {} on {} ranks...", program.name(), nprocs);
    let original = program.run(machine, nprocs, size);
    siesta_obs::info!("replaying proxy...");
    let proxy = replay(&proxy_program, machine);
    println!("original: {}", human_ms(original.elapsed_ns()));
    println!("proxy:    {}", human_ms(proxy.elapsed_ns()));
    let t = if proxy_program.scale > 1.0 {
        let reproduced = proxy.elapsed_ns() * proxy_program.scale;
        println!("reproduced (x{}): {}", proxy_program.scale, human_ms(reproduced));
        (reproduced - original.elapsed_ns()).abs() / original.elapsed_ns()
    } else {
        proxy.time_error(&original)
    };
    println!("time error:    {:.2}%", 100.0 * t);
    println!(
        "counter error: {:.2}%",
        100.0 * proxy.mean_counter_error(&original)
    );
    println!("per metric:");
    for (name, err) in siesta_core::per_metric_error_pct(&proxy, &original) {
        match err {
            Some(e) => println!("  {name:<8} {e:>6.2}%"),
            None => println!("  {name:<8} below measurement floor"),
        }
    }
    Ok(())
}

fn cmd_emit_c(args: &Args) -> Result<(), String> {
    check_cmd_opts(args, &["proxy", "out"])?;
    let program = load_proxy(args)?;
    let out = args.require("out")?;
    std::fs::write(out, emit_c(&program)).map_err(|e| e.to_string())?;
    println!("{out}");
    Ok(())
}

fn cmd_retarget(args: &Args) -> Result<(), String> {
    check_cmd_opts(args, &["proxy", "nprocs", "out"])?;
    let program = load_proxy(args)?;
    let nprocs = args.get_usize("nprocs", 0)?;
    if nprocs == 0 {
        return Err("missing required --nprocs".to_string());
    }
    let out = args.require("out")?;
    let retargeted = siesta_codegen::retarget(&program, nprocs).map_err(|e| e.to_string())?;
    wire::save(&retargeted, Path::new(out)).map_err(|e| e.to_string())?;
    siesta_obs::info!(
        "retargeted {} → {} ranks ({})",
        program.nranks, nprocs, retargeted.generated_on
    );
    println!("{out}");
    Ok(())
}

fn cmd_inspect(args: &Args) -> Result<(), String> {
    check_cmd_opts(args, &["proxy"])?;
    let p = load_proxy(args)?;
    println!("ranks:         {}", p.nranks);
    println!("generated on:  {}", p.generated_on);
    println!("scale factor:  {}", p.scale);
    println!(
        "terminals:     {} ({} comm, {} compute)",
        p.terminals.len(),
        p.comm_terminals(),
        p.compute_terminals()
    );
    println!("rules:         {}", p.rules.len());
    println!("main rules:    {}", p.mains.len());
    println!("grammar size:  {} symbols", p.grammar_size());
    // Per-function histogram of comm terminals.
    let mut hist: std::collections::BTreeMap<&'static str, usize> = Default::default();
    for t in &p.terminals {
        if let TerminalOp::Comm(e) = t {
            *hist.entry(e.func_name()).or_default() += 1;
        }
    }
    println!("comm terminal mix:");
    for (func, count) in hist {
        println!("  {func:<18} {count}");
    }
    for (i, m) in p.mains.iter().enumerate() {
        println!(
            "main {} covers ranks {} ({} symbols)",
            i,
            m.ranks,
            m.body.len()
        );
    }
    Ok(())
}

fn cmd_trace(args: &Args) -> Result<(), String> {
    let observers = Observers::parse(args, &[
        "program", "nprocs", "size", "platform", "flavor", "out", "stream-buf",
    ])?;
    let program = parse_program(args.require("program")?)?;
    let nprocs = args.get_usize("nprocs", 16)?;
    if !program.valid_nprocs(nprocs) {
        return Err(format!("{} cannot run on {nprocs} ranks", program.name()));
    }
    let size = parse_size(&args.get_or("size", "small"))?;
    let machine = parse_machine(args)?;
    let stream_buf = parse_stream_buf(args)?;
    let out = args.get("out").map(str::to_string);
    if let Some(p) = &out {
        check_writable_dest(p)?;
    }
    let config = SiestaConfig {
        trace: TraceConfig { stream_buf, ..TraceConfig::default() },
        observe: observers.observe,
        ..SiestaConfig::default()
    };
    let siesta = Siesta::new(config);
    // The store keeps the lifted grammars, so no rank's sequence is
    // expanded unless the trace is printed.
    let (trace, traced) = siesta.trace_run(machine, nprocs, move |r| program.body(size)(r));
    let sg = siesta.merge_streamed(trace);
    match out {
        Some(out) => {
            siesta_trace::write_store(&sg, Path::new(&out)).map_err(|e| format!("{out}: {e}"))?;
            siesta_obs::info!(
                "saved merged trace: {} terminals, {} ranks",
                sg.table.len(),
                sg.nranks
            );
            println!("{out}");
        }
        None => print!("{}", siesta_trace::text::render(&sg.to_global_trace())),
    }
    observers.write(traced)
}

/// Parse a `--sim-ranks` sweep list: comma-separated counts with optional
/// binary `k` (×1024) / `m` (×1 048 576) suffixes, e.g. `512,4k,64k,1m`.
fn parse_rank_list(s: &str) -> Result<Vec<usize>, String> {
    let mut out = Vec::new();
    for part in s.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let lower = part.to_ascii_lowercase();
        let (digits, mult) = if let Some(d) = lower.strip_suffix('k') {
            (d, 1024usize)
        } else if let Some(d) = lower.strip_suffix('m') {
            (d, 1024 * 1024)
        } else {
            (lower.as_str(), 1)
        };
        let n: usize = digits
            .parse()
            .map_err(|_| format!("--sim-ranks: bad count {part}"))?;
        let n = n
            .checked_mul(mult)
            .ok_or_else(|| format!("--sim-ranks: {part} overflows"))?;
        if n == 0 {
            return Err("--sim-ranks: counts must be at least 1".to_string());
        }
        out.push(n);
    }
    if out.is_empty() {
        return Err("--sim-ranks: empty list".to_string());
    }
    Ok(out)
}

fn cmd_simulate(args: &Args) -> Result<(), String> {
    let observers = Observers::parse(args, &[
        "sim-ranks", "program", "iters", "face-bytes", "size", "platform", "flavor",
    ])?;
    // Platform B by default: it is the only paper platform without a rank
    // capacity cap, and the sweeps go far past the others' limits.
    let machine = parse_machine_with_default(args, "B")?;
    let counts = parse_rank_list(&args.get_or("sim-ranks", "4096"))?;
    let program = match args.get("program") {
        Some(name) => Some(parse_program(name)?),
        None => None,
    };
    if program.is_some() && (args.get("iters").is_some() || args.get("face-bytes").is_some()) {
        return Err(
            "--iters/--face-bytes configure the halo kernel; with --program use --size".to_string(),
        );
    }
    let size = parse_size(&args.get_or("size", "tiny"))?;
    let iters = args.get_usize("iters", 10)?;
    let face_bytes = args.get_usize("face-bytes", 4096)?;
    if let Some(p) = program {
        for &n in &counts {
            if !p.valid_nprocs(n) {
                return Err(format!(
                    "{} cannot run on {n} ranks (BT/SP need squares; CG/MG/IS powers of two)",
                    p.name()
                ));
            }
        }
    }
    if let Some(max) = machine.platform.max_ranks() {
        if let Some(&over) = counts.iter().find(|&&n| n > max) {
            return Err(format!(
                "platform {} hosts at most {max} ranks (requested {over}); use --platform B",
                machine.platform.name
            ));
        }
    }

    let label = match program {
        Some(p) => format!("{} ({size:?})", p.name()),
        None => format!("halo2d (iters {iters}, face {face_bytes} B)"),
    };
    println!("simulating {label} on {}", machine.label());
    println!(
        "{:>9}  {:>12}  {:>9}  {:>11}  {:>9}  schedule hash",
        "ranks", "virtual", "wall", "ranks/s", "peak RSS"
    );
    // Collectors are sized to their world, so every count gets its own;
    // the sweep reports the last count's.
    let mut last = None;
    for (i, &n) in counts.iter().enumerate() {
        let body = match program {
            Some(p) => p.body(size),
            None => siesta_workloads::halo::halo2d_body(iters, face_bytes),
        };
        let t0 = std::time::Instant::now();
        let stats = World::new(machine, n).observe(observers.observe).run(body);
        let wall = t0.elapsed().as_secs_f64();
        let rss = siesta_obs::peak_rss_bytes()
            .map(|b| human_bytes(b as usize))
            .unwrap_or_else(|| "n/a".to_string());
        println!(
            "{n:>9}  {:>12}  {:>8.2}s  {:>11.0}  {:>9}  {:016x}",
            human_ms(stats.elapsed_ns()),
            wall,
            n as f64 / wall.max(1e-9),
            rss,
            stats.schedule_hash()
        );
        // Keep the last count's collectors only: an earlier count's would
        // add their memory to the next run, and the per-rank statistics
        // theirs to the artifact export.
        if i + 1 == counts.len() {
            last = Some(RunStats { per_rank: Vec::new(), ..stats });
        }
    }
    observers.write(last.expect("at least one rank count"))
}

fn cmd_list() -> Result<(), String> {
    println!("programs (paper Table 3):");
    for p in Program::ALL {
        println!(
            "  {:<10} valid nprocs e.g. {:?}{}",
            p.name(),
            p.paper_nprocs(),
            if p.uses_comm_management() { "  (uses communicator management)" } else { "" }
        );
    }
    println!("\nplatforms (paper Table 2): A (Xeon 6248 + HDR), B (Xeon Phi KNL + OPA), C (E5-2680v4, single node)");
    println!("flavors: openmpi, mpich, mvapich");
    println!("sizes: tiny, small, reference");
    Ok(())
}
