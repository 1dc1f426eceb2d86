//! The runner: a closed loop that runs one child process at a time
//! for `--seconds`, then reduces the repetitions to the benchmark's
//! metrics and checks.
//!
//! Estimator: every timed repetition is a cold synthesis in a fresh
//! process at one pool thread, and a run reports its fastest repetition.
//! The host's speed swings in spells of seconds; the fastest repetition of
//! a run is the one least slowed by them (see `README.md` for the
//! measurements behind this choice). Set-up time is likewise the fastest
//! of many: the repetitions' and the set-up-only children's spawned
//! between them.

use std::collections::BTreeMap;
use std::process::{Command, Stdio};
use std::time::Instant;

use crate::child::unix_ns;
use crate::workload::{Kind, Workload};

/// `(name, unit)` of every end-to-end metric, reported with `--trace 0`.
pub const END_TO_END: [(&str, &str); 7] = [
    ("synth_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("compression_ratio", "ratio"),
    ("time_error_pct", "%"),
    ("counter_error_pct", "%"),
    ("success_frac", "frac"),
];

/// How a per-layer metric reduces over a run's traced repetitions.
#[derive(Clone, Copy)]
enum Reduce {
    /// A time: the fastest repetition.
    Fastest,
    /// A peak RSS: the median repetition.
    Median,
    /// A count: must repeat exactly.
    Exact,
    /// Computed from other metrics by the runner.
    Derived,
}

/// Every per-layer metric, reported with `--trace 1`.
const PER_LAYER: [(&str, &str, Reduce); 33] = [
    ("mpisim.run_s", "s", Reduce::Fastest),
    ("mpisim.calls", "count", Reduce::Exact),
    ("mpisim.calls_per_s", "1/s", Reduce::Derived),
    ("mpisim.peak_rss_mb", "MB", Reduce::Median),
    ("mpisim.sched_rounds", "count", Reduce::Exact),
    ("mpisim.sched_wakes", "count", Reduce::Exact),
    ("trace.record_s", "s", Reduce::Fastest),
    ("trace.post_s", "s", Reduce::Fastest),
    ("trace.post_ns_per_call", "ns", Reduce::Derived),
    ("trace.finish_s", "s", Reduce::Fastest),
    ("trace.events", "count", Reduce::Exact),
    ("trace.record_peak_rss_mb", "MB", Reduce::Median),
    ("trace.merge_s", "s", Reduce::Fastest),
    ("trace.merge_rounds", "count", Reduce::Exact),
    ("trace.terminals", "count", Reduce::Exact),
    ("trace.merge_peak_rss_mb", "MB", Reduce::Median),
    ("grammar.sequitur_s", "s", Reduce::Fastest),
    ("grammar.sequitur_unique_s", "s", Reduce::Fastest),
    ("grammar.unique_seqs", "count", Reduce::Exact),
    ("grammar.merge_s", "s", Reduce::Fastest),
    ("grammar.rules", "count", Reduce::Exact),
    ("grammar.mains", "count", Reduce::Exact),
    ("grammar.size", "count", Reduce::Exact),
    ("proxy.search_s", "s", Reduce::Fastest),
    ("proxy.targets", "count", Reduce::Exact),
    ("core.synthesize_s", "s", Reduce::Fastest),
    ("codegen.emit_s", "s", Reduce::Fastest),
    ("codegen.c_bytes", "bytes", Reduce::Exact),
    ("codegen.wire_bytes", "bytes", Reduce::Exact),
    ("codegen.replay_s", "s", Reduce::Fastest),
    ("ingest.materialized_s", "s", Reduce::Fastest),
    ("ingest.materialized_peak_rss_mb", "MB", Reduce::Median),
    ("obs.tracing_overhead_pct", "%", Reduce::Derived),
];

/// The per-layer metric names, in report order.
pub fn per_layer_names() -> impl Iterator<Item = &'static str> {
    PER_LAYER.iter().map(|m| m.0)
}

/// Timed repetitions a run makes at least, whatever `--seconds` says.
const MIN_REPS: usize = 3;
/// Traced repetitions a `--trace 1` run makes at least.
const MIN_TRACED: usize = 2;
/// Set-up-only children spawned after each untraced repetition.
const SETUPS_PER_REP: usize = 4;
/// No repetition starts if it could end past this point of a run: every
/// run must finish well inside its 180 s limit.
const LAST_END_S: f64 = 150.0;
/// Steps of the calibration loop (about 40 ms on a 2.5 GHz core).
const CALIBRATION_STEPS: u64 = 25_000_000;
/// Pool width of every measured process.
pub const WIDTH: usize = 1;

pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// A run's outcome: the result line plus the record.
pub struct Outcome {
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    /// `(name, value, unit)` in report order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub failures: Vec<String>,
    record: String,
}

impl Outcome {
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.0 == name).map(|m| m.1)
    }

    /// The result line: `correct`, `attempted`, `failed` and the metrics.
    pub fn result_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    quote(name),
                    num(*value),
                    quote(unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Everything a later reader needs to judge the run: host width,
    /// every repetition's time, the calibration loop, the seeds.
    pub fn record_json(&self) -> &str {
        &self.record
    }
}

/// One child process: what it printed, or `ok: false` if it failed.
struct ChildRun {
    ok: bool,
    values: BTreeMap<String, String>,
    /// From the runner's spawn call to the child's call into the library.
    setup_s: Option<f64>,
}

impl ChildRun {
    fn get(&self, key: &str) -> Option<f64> {
        self.values.get(key).and_then(|v| v.parse().ok())
    }

    fn text(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(String::as_str)
    }
}

fn spawn(opts: &Options, mode: &str, fidelity: bool) -> ChildRun {
    let w = &opts.workload;
    let exe = std::env::current_exe().expect("path of the running benchmark binary");
    let mut cmd = Command::new(exe);
    cmd.args(["child", mode, "--workload", w.name])
        .args(["--workload-seed", &w.workload_seed.to_string()])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if w.tiny {
        cmd.arg("--tiny");
    }
    if fidelity {
        cmd.arg("--fidelity");
    }
    let launched = unix_ns();
    let output = match cmd.spawn().and_then(|child| child.wait_with_output()) {
        Ok(output) => output,
        Err(e) => {
            eprintln!("perfbench: cannot run child {mode}: {e}");
            return ChildRun {
                ok: false,
                values: BTreeMap::new(),
                setup_s: None,
            };
        }
    };
    let values: BTreeMap<String, String> = String::from_utf8_lossy(&output.stdout)
        .lines()
        .filter_map(|l| l.split_once(' '))
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    let setup_s = values
        .get("entered_unix_ns")
        .and_then(|v| v.parse::<u128>().ok())
        .map(|entered| entered.saturating_sub(launched) as f64 / 1e9);
    if !output.status.success() {
        eprintln!("perfbench: child {mode} failed: {}", output.status);
    }
    ChildRun {
        ok: output.status.success(),
        values,
        setup_s,
    }
}

/// A fixed, serially dependent integer loop, timed: a host-speed
/// diagnostic recorded with every run and never gated.
fn calibrate() -> f64 {
    let t = Instant::now();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for _ in 0..CALIBRATION_STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x = x.wrapping_mul(0x2545_f491_4f6c_dd1d);
    }
    std::hint::black_box(x);
    t.elapsed().as_secs_f64()
}

/// Run the closed loop for `opts.seconds` and reduce it.
pub fn measure(opts: &Options) -> Outcome {
    let calibration_s = calibrate();
    let start = Instant::now();
    let mut reps: Vec<ChildRun> = Vec::new();
    let mut setups: Vec<ChildRun> = Vec::new();
    // Traced repetitions: [layers-pipeline, layers-engine, materialized].
    let mut traced: Vec<[ChildRun; 3]> = Vec::new();
    let mut longest = 0.0f64;
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        let enough = if opts.trace {
            traced.len() >= MIN_TRACED
        } else {
            reps.len() >= MIN_REPS
        };
        if (enough && elapsed >= opts.seconds)
            || (!reps.is_empty() && elapsed + longest > LAST_END_S)
        {
            break;
        }
        let t = Instant::now();
        let fidelity = !opts.trace && !reps.iter().any(|r| r.get("time_error_pct").is_some());
        reps.push(spawn(opts, "rep", fidelity));
        if opts.trace {
            traced.push([
                spawn(opts, "layers-pipeline", false),
                spawn(opts, "layers-engine", false),
                spawn(opts, "materialized", false),
            ]);
        } else {
            setups.extend((0..SETUPS_PER_REP).map(|_| spawn(opts, "setup", false)));
        }
        longest = longest.max(t.elapsed().as_secs_f64());
    }

    // The proxy every repetition must reproduce byte for byte: the one
    // that was replayed and checked (by the first fidelity repetition, or
    // by the traced pipeline).
    let reference = if opts.trace {
        traced
            .iter()
            .find(|t| t[0].ok)
            .and_then(|t| t[0].text("wire_hash"))
    } else {
        reps.iter()
            .find(|r| r.ok && r.get("time_error_pct").is_some())
            .and_then(|r| r.text("wire_hash"))
    };
    let reproduces = |c: &ChildRun| c.ok && reference.is_some() && c.text("wire_hash") == reference;
    let ok_reps: Vec<&ChildRun> = reps.iter().filter(|r| reproduces(r)).collect();
    let ok_traced: Vec<&[ChildRun; 3]> = traced
        .iter()
        .filter(|t| reproduces(&t[0]) && t[1].ok && reproduces(&t[2]))
        .collect();
    let attempted = reps.len() + traced.len();
    let failed = attempted - ok_reps.len() - ok_traced.len();

    let mut failures = Vec::new();
    match reference {
        None => failures.push("no repetition replayed its proxy successfully".to_string()),
        Some(reference) => {
            let all = reps
                .iter()
                .chain(traced.iter().flat_map(|t| [&t[0], &t[2]]));
            let differing: Vec<&str> = all
                .filter(|c| c.ok)
                .filter_map(|c| c.text("wire_hash"))
                .filter(|&h| h != reference)
                .collect();
            if !differing.is_empty() {
                failures.push(format!(
                    "wire bytes differ from the replayed proxy's {reference}: {differing:?}"
                ));
            }
        }
    }
    let rep_values = |key: &str, failures: &mut Vec<String>| -> Vec<f64> {
        let vs: Vec<f64> = ok_reps.iter().filter_map(|r| r.get(key)).collect();
        if vs.len() != ok_reps.len() {
            failures.push(format!("a repetition did not report {key}"));
        }
        vs
    };
    let synth_s = fastest(&rep_values("synth_s", &mut failures));

    if setups.iter().any(|s| !s.ok) {
        failures.push("a set-up-only child failed".to_string());
    }
    let metrics = if opts.trace {
        per_layer_metrics(&ok_traced, synth_s, &mut failures)
    } else {
        // Every set-up of the run: the repetitions' and the set-up-only
        // children's.
        let setup_s: Vec<f64> = ok_reps
            .iter()
            .copied()
            .chain(&setups)
            .filter_map(|r| r.setup_s)
            .collect();
        let ratios = rep_values("compression_ratio", &mut failures);
        if ratios.windows(2).any(|p| p[0] != p[1]) {
            failures.push(format!(
                "compression ratio differs between repetitions: {ratios:?}"
            ));
        }
        let fidelity_rep = ok_reps.iter().find(|r| r.get("time_error_pct").is_some());
        let fidelity = |key: &str| fidelity_rep.and_then(|r| r.get(key)).unwrap_or(f64::NAN);
        // In `END_TO_END` order.
        let values = [
            synth_s,
            fastest(&setup_s),
            median(&rep_values("peak_rss_mb", &mut failures)),
            ratios.first().copied().unwrap_or(f64::NAN),
            fidelity("time_error_pct"),
            fidelity("counter_error_pct"),
            ok_reps.len() as f64 / reps.len() as f64,
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| (name, value, unit))
            .collect()
    };
    for (name, value, _) in &metrics {
        if !value.is_finite() {
            failures.push(format!("{name} was not measured"));
        }
    }

    let mut outcome = Outcome {
        correct: failed == 0 && failures.is_empty(),
        attempted,
        failed,
        metrics,
        failures,
        record: String::new(),
    };
    outcome.record = record_json(opts, &outcome, calibration_s, &reps, &setups, &traced);
    outcome
}

fn per_layer_metrics(
    ok: &[&[ChildRun; 3]],
    synth_s: f64,
    failures: &mut Vec<String>,
) -> Vec<(&'static str, f64, &'static str)> {
    let values = |key: &str, failures: &mut Vec<String>| -> Vec<f64> {
        let vs: Vec<f64> = ok
            .iter()
            .filter_map(|t| t.iter().find_map(|c| c.get(key)))
            .collect();
        if vs.len() != ok.len() {
            failures.push(format!("a traced repetition did not report {key}"));
        }
        vs
    };
    let mut reduced: BTreeMap<&str, f64> = BTreeMap::new();
    for (name, _, reduce) in PER_LAYER {
        let value = match reduce {
            Reduce::Fastest => fastest(&values(name, failures)),
            Reduce::Median => median(&values(name, failures)),
            Reduce::Exact => {
                let vs = values(name, failures);
                if vs.windows(2).any(|p| p[0] != p[1]) {
                    failures.push(format!("{name} did not repeat exactly: {vs:?}"));
                }
                vs.first().copied().unwrap_or(f64::NAN)
            }
            Reduce::Derived => continue,
        };
        reduced.insert(name, value);
    }
    let posts = values("posts", failures);
    if posts.iter().any(|&p| p != reduced["mpisim.calls"]) {
        failures.push(format!(
            "the timed recorder saw {posts:?} calls, not every MPI call"
        ));
    }
    reduced.insert(
        "mpisim.calls_per_s",
        reduced["mpisim.calls"] / reduced["mpisim.run_s"],
    );
    reduced.insert(
        "trace.post_ns_per_call",
        reduced["trace.post_s"] * 1e9 / reduced["mpisim.calls"],
    );
    // The traced run's synthesis: its four timed layers, which together
    // make up exactly the work of one untraced repetition.
    let traced_synth_s = reduced["trace.record_s"]
        + reduced["trace.merge_s"]
        + reduced["core.synthesize_s"]
        + reduced["codegen.emit_s"];
    reduced.insert(
        "obs.tracing_overhead_pct",
        100.0 * (traced_synth_s - synth_s) / synth_s,
    );
    PER_LAYER
        .iter()
        .map(|&(name, unit, _)| (name, reduced[name], unit))
        .collect()
}

fn fastest(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::NAN, f64::min)
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn quote(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn list(values: impl Iterator<Item = String>) -> String {
    format!("[{}]", values.collect::<Vec<_>>().join(", "))
}

fn record_json(
    opts: &Options,
    outcome: &Outcome,
    calibration_s: f64,
    reps: &[ChildRun],
    setups: &[ChildRun],
    traced: &[[ChildRun; 3]],
) -> String {
    let w = &opts.workload;
    let mut fields = vec![
        ("benchmark", quote("siesta-perfbench")),
        ("workload", quote(w.name)),
        ("seed", opts.seed.to_string()),
        ("workload_seed", w.workload_seed.to_string()),
        ("nranks", w.nranks.to_string()),
    ];
    if w.kind == Kind::Halo {
        fields.push(("halo_steps", w.halo_steps.to_string()));
        fields.push(("face_bytes", w.face_bytes.to_string()));
    } else {
        fields.push(("size", quote(w.size_name())));
    }
    fields.extend([
        ("trace", u8::from(opts.trace).to_string()),
        ("seconds", num(opts.seconds)),
        ("threads", WIDTH.to_string()),
        (
            "host_parallelism",
            siesta_par::available_parallelism().to_string(),
        ),
        ("calibration_s", num(calibration_s)),
        ("repetitions", reps.len().to_string()),
        ("rep_exited_ok", list(reps.iter().map(|r| r.ok.to_string()))),
        (
            "rep_synth_s",
            list(
                reps.iter()
                    .map(|r| num(r.get("synth_s").unwrap_or(f64::NAN))),
            ),
        ),
        (
            "rep_setup_s",
            list(reps.iter().map(|r| num(r.setup_s.unwrap_or(f64::NAN)))),
        ),
        (
            "setup_only_s",
            list(setups.iter().map(|r| num(r.setup_s.unwrap_or(f64::NAN)))),
        ),
        ("traced_repetitions", traced.len().to_string()),
        (
            "traced_record_s",
            list(
                traced
                    .iter()
                    .map(|t| num(t[0].get("trace.record_s").unwrap_or(f64::NAN))),
            ),
        ),
        ("failures", list(outcome.failures.iter().map(|f| quote(f)))),
        ("result", outcome.result_json()),
    ]);
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {v}", quote(k)))
        .collect();
    format!("{{{}}}", body.join(", "))
}
