//! Event-scheduler scale bench: simulation throughput and memory versus
//! virtual rank count.
//!
//! The event-driven rework's contract is that rank count is decoupled
//! from host threads: a rank costs one heap future plus a mailbox. This
//! bench sweeps the 2D halo-exchange microkernel at 512 / 4096 / 65 536
//! ranks, records **ranks per second** (virtual ranks simulated to
//! completion per wall-clock second), **calls per second** (simulated MPI
//! calls per wall-clock second, which unlike ranks/s does not depend on
//! how many calls a rank makes) and the process **peak RSS**, and writes
//! `BENCH_mpisim.json` (format v2) for `scripts/check_bench.py` to gate in
//! CI. Calls/s is recorded, not gated.
//!
//! ```sh
//! cargo bench -p siesta-bench --bench mpisim_scale            # full
//! cargo bench -p siesta-bench --bench mpisim_scale -- --quick # CI smoke
//! ```
//!
//! Budgets (embedded in the JSON, gated at slack 1.0 on the checked-in
//! full run, 4× slack on the CI quick run):
//!
//! * ranks/s at 65 536 ranks must clear the floor — the ISSUE 8
//!   acceptance "65 536 ranks in < 60 s" with margin;
//! * peak RSS after the full sweep stays under 2 GB (`VmHWM` is a
//!   process-lifetime high-water mark, so the post-sweep reading bounds
//!   every point).

use std::hint::black_box;
use std::time::Instant;

use siesta_mpisim::World;
use siesta_perfmodel::{platform_b, Machine, MpiFlavor};
use siesta_workloads::halo::halo2d_body;

struct Config {
    quick: bool,
    sizes: &'static [usize],
    iters: usize,
    face_bytes: usize,
    warmup: usize,
    reps: usize,
}

impl Config {
    fn detect() -> Config {
        let quick = std::env::args().any(|a| a == "--quick")
            || std::env::var("SIESTA_BENCH_QUICK").is_ok_and(|v| v == "1");
        if quick {
            Config { quick, sizes: &[512, 4096], iters: 5, face_bytes: 4096, warmup: 1, reps: 3 }
        } else {
            Config {
                quick,
                sizes: &[512, 4096, 65_536],
                iters: 10,
                face_bytes: 4096,
                warmup: 1,
                reps: 5,
            }
        }
    }
}

fn main() {
    let cfg = Config::detect();
    let machine = Machine::new(platform_b(), MpiFlavor::OpenMpi);

    println!(
        "mpisim_scale halo2d iters={} face={}B ({} reps{})",
        cfg.iters,
        cfg.face_bytes,
        cfg.reps,
        if cfg.quick { ", quick" } else { "" }
    );
    println!(
        "{:>9}  {:>10}  {:>10}  {:>12}  {:>12}  {:>10}",
        "ranks", "mean ms", "min ms", "ranks/s", "calls/s", "peak RSS"
    );

    let mut points = String::new();
    let mut best_rps = Vec::new();
    for &ranks in cfg.sizes {
        let run = || {
            let t0 = Instant::now();
            let stats =
                World::new(machine, ranks).run(halo2d_body(cfg.iters, cfg.face_bytes));
            let dt = t0.elapsed().as_secs_f64();
            black_box(stats.schedule_hash());
            (dt, stats.total_calls())
        };
        for _ in 0..cfg.warmup {
            run();
        }
        let mut total = 0.0;
        let mut min = f64::INFINITY;
        let mut calls = 0;
        for _ in 0..cfg.reps {
            let (dt, c) = run();
            total += dt;
            min = min.min(dt);
            calls = c;
        }
        let mean = total / cfg.reps as f64;
        // Throughput from the min time: the cleanest sample of what the
        // scheduler can do, which is what the regression floor gates.
        let rps = ranks as f64 / min;
        let cps = calls as f64 / min;
        let rss = siesta_obs::peak_rss_bytes().unwrap_or(0);
        best_rps.push((ranks, rps));
        println!(
            "{ranks:>9}  {:>10.2}  {:>10.2}  {:>12.0}  {:>12.0}  {:>8.1} MB",
            mean * 1e3,
            min * 1e3,
            rps,
            cps,
            rss as f64 / (1024.0 * 1024.0)
        );
        if !points.is_empty() {
            points.push(',');
        }
        points.push_str(&format!(
            "\n    {{\"phase\": \"halo2d\", \"ranks\": {ranks}, \"mean_ms\": {:.3}, \
             \"min_ms\": {:.3}, \"ranks_per_sec\": {:.0}, \"calls_per_sec\": {:.0}, \
             \"peak_rss_bytes\": {rss}}}",
            mean * 1e3,
            min * 1e3,
            rps,
            cps
        ));
    }

    let peak_rss = siesta_obs::peak_rss_bytes().unwrap_or(0);
    let peak_rss_gb = peak_rss as f64 / (1024.0 * 1024.0 * 1024.0);
    let top_ranks = *cfg.sizes.last().unwrap();
    let top_rps = best_rps.last().unwrap().1;

    // Floors with generous margin under the recorded values: the 65 536
    // acceptance bound (< 60 s ⇒ > ~1100 ranks/s) for the full run, and
    // a matching per-size floor for the quick sweep. The RSS ceiling is
    // the ISSUE 8 acceptance number verbatim.
    let (rps_metric, rps_budget) = if cfg.quick {
        (format!("ranks_per_sec_{top_ranks}"), 2_000.0)
    } else {
        (format!("ranks_per_sec_{top_ranks}"), 1_100.0)
    };

    let path = if cfg.quick {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_mpisim_quick.json")
    } else {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_mpisim.json")
    };
    let json = format!(
        "{{\n  \"version\": 2,\n  \"bench\": \"mpisim_scale\",\n  \"mode\": \"{}\",\n  \
         \"host_parallelism\": {},\n  \"workload\": \"halo2d\",\n  \"iters\": {},\n  \
         \"face_bytes\": {},\n  \"reps\": {},\n  \
         \"{rps_metric}\": {:.0},\n  \"budget_min_{rps_metric}\": {:.0},\n  \
         \"peak_rss_gb\": {:.4},\n  \"budget_max_peak_rss_gb\": 2.0,\n  \
         \"points\": [{points}\n  ]\n}}\n",
        if cfg.quick { "quick" } else { "full" },
        siesta_par::available_parallelism(),
        cfg.iters,
        cfg.face_bytes,
        cfg.reps,
        top_rps,
        rps_budget,
        peak_rss_gb,
    );
    match std::fs::write(path, &json) {
        Ok(()) => println!("scale results written to {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}
