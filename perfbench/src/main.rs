//! `siesta-perfbench`: end-to-end synthesis benchmark with per-layer
//! attribution. See `README.md` beside this package for the workloads,
//! the metrics, and the noise measurements behind the estimator.
//!
//! ```text
//! siesta-perfbench --workload W --seed N --seconds S --trace 0|1
//!                  [--workload-seed K]
//! siesta-perfbench --self-test
//! ```
//!
//! The runner prints one record line (every repetition, host width,
//! calibration loop) and, last, the result line: `correct`, `attempted`,
//! `failed`, and the end-to-end (`--trace 0`) or per-layer (`--trace 1`)
//! metrics. Children (`siesta-perfbench child <mode> ...`) are spawned by
//! the runner only.

mod child;
mod runner;
mod workload;

use runner::{measure, per_layer_names, Options, END_TO_END, WIDTH};
use workload::{Workload, NAMES};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("child") => run_child(&args[1..]),
        Some("--self-test") => self_test(),
        _ => run_benchmark(&args),
    };
    if let Err(e) = result {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    }
}

/// `--key value` pairs and bare `--flag`s.
struct Args<'a>(&'a [String]);

impl Args<'_> {
    fn value(&self, key: &str) -> Option<&str> {
        self.0
            .iter()
            .position(|a| a == key)
            .and_then(|i| self.0.get(i + 1))
            .map(String::as_str)
    }

    fn flag(&self, key: &str) -> bool {
        self.0.iter().any(|a| a == key)
    }

    fn required(&self, key: &str) -> Result<&str, String> {
        self.value(key).ok_or_else(|| format!("missing {key}"))
    }

    fn number<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.value(key) {
            Some(v) => v.parse().map_err(|_| format!("{key}: not a number: {v}")),
            None => Ok(default),
        }
    }
}

fn run_benchmark(raw: &[String]) -> Result<(), String> {
    let args = Args(raw);
    let trace = match args.required("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    let opts = Options {
        workload: Workload::resolve(
            args.required("--workload")?,
            args.number("--workload-seed", 0)?,
            false,
        )?,
        seed: args.number("--seed", 0)?,
        seconds: args.number("--seconds", 10.0)?,
        trace,
    };
    let outcome = measure(&opts);
    for failure in &outcome.failures {
        eprintln!("perfbench: check failed: {failure}");
    }
    println!("{}", outcome.record_json());
    println!("{}", outcome.result_json());
    Ok(())
}

fn run_child(raw: &[String]) -> Result<(), String> {
    let args = Args(raw);
    let w = Workload::resolve(
        args.required("--workload")?,
        args.number("--workload-seed", 0)?,
        args.flag("--tiny"),
    )?;
    siesta_par::set_threads(WIDTH);
    match raw.first().map(String::as_str) {
        Some("rep") => child::rep(&w, args.flag("--fidelity")),
        Some("setup") => child::setup(&w),
        Some("materialized") => child::materialized(&w),
        Some("layers-pipeline") => child::layers_pipeline(&w),
        Some("layers-engine") => child::layers_engine(&w),
        other => return Err(format!("unknown child mode {other:?}")),
    }
    Ok(())
}

/// Metric names listed under `key` in `BENCHMARK.json`.
fn listed_names(json: &str, key: &str) -> Vec<String> {
    let section = json
        .find(&format!("\"{key}\""))
        .map_or("", |at| &json[at..]);
    let section = &section[..section.find(']').unwrap_or(section.len())];
    section
        .split("\"name\"")
        .skip(1)
        .filter_map(|s| s.split('"').nth(1).map(str::to_string))
        .collect()
}

/// Run every workload at a tiny size through the same runner, traced and
/// untraced. Fails if a named metric is missing or not finite, or if any
/// correctness check fails. Run from the repository root, where
/// `BENCHMARK.json` names the metrics.
fn self_test() -> Result<(), String> {
    let json = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    let e2e: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
    let layers: Vec<&str> = per_layer_names().collect();
    if listed_names(&json, "end_to_end") != e2e || listed_names(&json, "per_layer") != layers {
        return Err("BENCHMARK.json metric lists differ from the runner's".to_string());
    }
    let mut problems = Vec::new();
    for name in NAMES {
        let workload = Workload::resolve(name, 0, true)?;
        for (trace, names) in [(false, &e2e), (true, &layers)] {
            let opts = Options {
                workload: workload.clone(),
                seed: 0,
                seconds: 0.0,
                trace,
            };
            let outcome = measure(&opts);
            let label = format!("{name} (tiny, trace {})", u8::from(trace));
            problems.extend(outcome.failures.iter().map(|f| format!("{label}: {f}")));
            if !outcome.correct {
                problems.push(format!("{label}: not correct ({} failed)", outcome.failed));
            }
            for metric in names.iter() {
                match outcome.metric(metric) {
                    Some(v) if v.is_finite() => {}
                    other => problems.push(format!("{label}: {metric} = {other:?}")),
                }
            }
            if !trace && outcome.metric("success_frac") != Some(1.0) {
                problems.push(format!("{label}: success_frac below 1"));
            }
            eprintln!("self-test {label}: {}", outcome.result_json());
        }
    }
    if problems.is_empty() {
        println!(
            "self-test passed: {} workloads, traced and untraced",
            NAMES.len()
        );
        Ok(())
    } else {
        Err(format!("self-test failed:\n  {}", problems.join("\n  ")))
    }
}
