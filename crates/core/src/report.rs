//! Error metrics and human-readable formatting (the paper's Section 3
//! measures).

use siesta_mpisim::RunStats;
use siesta_perfmodel::{METRICS, MEASUREMENT_FLOOR};

/// Percentage time error `100·|T_gen − T_app| / T_app` (Figs 6–9).
pub fn time_error_pct(generated: &RunStats, original: &RunStats) -> f64 {
    100.0 * generated.time_error(original)
}

/// Percentage time error against a *reproduced* time (e.g. a scaled proxy's
/// elapsed time multiplied back by its factor).
pub fn reproduced_time_error_pct(reproduced_ns: f64, original: &RunStats) -> f64 {
    let t = original.elapsed_ns();
    if t == 0.0 {
        return 0.0;
    }
    100.0 * (reproduced_ns - t).abs() / t
}

/// The Table 3 "Error" column: mean relative counter error across all
/// metrics and processes, in percent.
pub fn counter_error_pct(generated: &RunStats, original: &RunStats) -> f64 {
    100.0 * generated.mean_counter_error(original)
}

/// Per-metric relative error (percent) between two runs, averaged over
/// ranks; `None` for metrics below the measurement floor everywhere.
pub fn per_metric_error_pct(
    generated: &RunStats,
    original: &RunStats,
) -> [(&'static str, Option<f64>); 6] {
    let mut out = [("", None); 6];
    for (i, metric) in METRICS.iter().enumerate() {
        let mut total = 0.0;
        let mut n = 0usize;
        for (g, o) in generated.per_rank.iter().zip(&original.per_rank) {
            let reference = o.counters.get(*metric);
            if reference > MEASUREMENT_FLOOR {
                total += (g.counters.get(*metric) - reference).abs() / reference;
                n += 1;
            }
        }
        out[i] = (
            metric.name(),
            if n > 0 { Some(100.0 * total / n as f64) } else { None },
        );
    }
    out
}

/// Format a byte count like the paper's tables ("290 MB", "221 KB").
pub fn human_bytes(bytes: usize) -> String {
    let b = bytes as f64;
    if b >= 1024.0 * 1024.0 * 1024.0 {
        format!("{:.1} GB", b / (1024.0 * 1024.0 * 1024.0))
    } else if b >= 1024.0 * 1024.0 {
        format!("{:.1} MB", b / (1024.0 * 1024.0))
    } else if b >= 1024.0 {
        format!("{:.1} KB", b / 1024.0)
    } else {
        format!("{bytes} B")
    }
}

/// Format virtual nanoseconds as milliseconds with sensible precision.
pub fn human_ms(ns: f64) -> String {
    format!("{:.2} ms", ns / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;
    use siesta_mpisim::RankStats;
    use siesta_perfmodel::CounterVec;

    fn run_with(counters: CounterVec) -> RunStats {
        RunStats {
            per_rank: vec![RankStats {
                rank: 0,
                finish_ns: 1.0,
                counters,
                compute_ns: 1.0,
                mpi_ns: 0.0,
                wait_ns: 0.0,
                app_calls: 1,
                bytes_sent: 0,
                compute_events: 1,
                sched_hash: 0,
            }],
            comm_matrix: None,
            sim_profile: None,
        }
    }

    #[test]
    fn per_metric_errors_and_floor() {
        let original = run_with(CounterVec::new(1e6, 2e6, 5e5, 500.0, 1e4, 2e3));
        let generated = run_with(CounterVec::new(1.1e6, 2e6, 4e5, 0.0, 1e4, 1e3));
        let report = per_metric_error_pct(&generated, &original);
        assert_eq!(report[0].0, "INS");
        assert!((report[0].1.unwrap() - 10.0).abs() < 1e-9);
        assert!((report[1].1.unwrap() - 0.0).abs() < 1e-9);
        assert!((report[2].1.unwrap() - 20.0).abs() < 1e-9);
        // L1_DCM reference (500) is below the measurement floor: skipped.
        assert_eq!(report[3], ("L1_DCM", None));
        assert!((report[5].1.unwrap() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn time_error_helpers() {
        let a = run_with(CounterVec::ZERO);
        let mut b = run_with(CounterVec::ZERO);
        b.per_rank[0].finish_ns = 1.2;
        assert!((time_error_pct(&b, &a) - 20.0).abs() < 1e-9);
        assert!((reproduced_time_error_pct(0.9, &a) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn human_bytes_units() {
        assert_eq!(human_bytes(512), "512 B");
        assert_eq!(human_bytes(2048), "2.0 KB");
        assert_eq!(human_bytes(3 * 1024 * 1024), "3.0 MB");
        assert_eq!(human_bytes(5 * 1024 * 1024 * 1024), "5.0 GB");
    }

    #[test]
    fn human_ms_format() {
        assert_eq!(human_ms(1_500_000.0), "1.50 ms");
    }
}
