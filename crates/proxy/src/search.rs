//! Computation-proxy search (Section 2.4): micro-benchmark the blocks on
//! the target machine, fit repetition counts with the constrained QP, round
//! to integers.

use siesta_hash::{first_seen, FirstSeen};
use siesta_perfmodel::{noise, CounterVec, CpuModel, KernelDesc, Machine};

use crate::blocks::{blocks_for, NUM_BLOCKS, WRAPPER};
use crate::qp::solve_block_fit;

/// A synthesized computation proxy: how many times each of the 11 blocks
/// repeats to mimic one computation event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComputeProxy {
    pub reps: [u64; NUM_BLOCKS],
}

impl ComputeProxy {
    pub const IDLE: ComputeProxy = ComputeProxy { reps: [0; NUM_BLOCKS] };

    /// Total block repetitions (a rough "work" measure).
    pub fn total_reps(&self) -> u64 {
        self.reps.iter().sum()
    }

    /// Counters the proxy produces on a CPU. The blocks execute as
    /// *separate sequential loops* (each with its own locality and
    /// bottleneck), so the total is the per-block sum — the same linearity
    /// the QP fit assumes.
    pub fn counters_on(&self, cpu: &CpuModel, blocks: &[KernelDesc; NUM_BLOCKS]) -> CounterVec {
        let mut acc = CounterVec::ZERO;
        for (block, &r) in blocks.iter().zip(&self.reps) {
            if r > 0 {
                acc += cpu.counters(block) * r as f64;
            }
        }
        acc
    }

    /// Execution time of the proxy on a CPU, nanoseconds.
    pub fn time_ns_on(&self, cpu: &CpuModel, blocks: &[KernelDesc; NUM_BLOCKS]) -> f64 {
        cpu.time_ns(&self.counters_on(cpu, blocks))
    }
}

/// Block signatures measured on a specific machine, plus the fit entry
/// point. Create once per (generation) machine and reuse for every event.
#[derive(Debug, Clone)]
pub struct ProxySearcher {
    blocks: [KernelDesc; NUM_BLOCKS],
    /// `b[i][j]`: metric `i` of one repetition of block `j`, as measured by
    /// the micro-benchmarks (noisy, like real measurements).
    b_matrix: [[f64; 11]; 6],
}

impl ProxySearcher {
    /// Micro-benchmark the 11 blocks on `machine` (paper: "we can use
    /// micro-benchmarks to get the i-th metric of block_j"). Each block is
    /// timed over many repetitions, so measurement noise is averaged down.
    pub fn new(machine: &Machine) -> ProxySearcher {
        let cpu = machine.cpu();
        let blocks = blocks_for(cpu);
        let mut b_matrix = [[0.0f64; 11]; 6];
        for (j, block) in blocks.iter().enumerate() {
            const BENCH_REPS: f64 = 4096.0;
            let seed = noise::combine(&[0xB10C, j as u64]);
            let measured = cpu.counters_noisy(&block.repeat(BENCH_REPS), seed) / BENCH_REPS;
            let arr = measured.as_array();
            for i in 0..6 {
                b_matrix[i][j] = arr[i];
            }
        }
        ProxySearcher { blocks, b_matrix }
    }

    pub fn blocks(&self) -> &[KernelDesc; NUM_BLOCKS] {
        &self.blocks
    }

    pub fn b_matrix(&self) -> &[[f64; 11]; 6] {
        &self.b_matrix
    }

    /// Find the block combination mimicking `target` (the mean counters of
    /// one clustered computation event).
    pub fn search(&self, target: &CounterVec) -> ComputeProxy {
        let fit = solve_block_fit(&self.b_matrix, &target.as_array());
        // Called once per compute event; cache the registry handle.
        static ITERS: std::sync::OnceLock<&'static siesta_obs::Histogram> =
            std::sync::OnceLock::new();
        ITERS
            .get_or_init(|| siesta_obs::histogram("proxy.solver_iterations"))
            .record(fit.iterations as u64);
        let mut reps = [0u64; NUM_BLOCKS];
        for (j, rep) in reps.iter_mut().enumerate() {
            *rep = fit.x[j].round().max(0.0) as u64;
        }
        // Rounding must not break the loop-cover constraint.
        let inner: u64 = reps[..9].iter().sum();
        if reps[WRAPPER] < inner {
            reps[WRAPPER] = inner;
        }
        ComputeProxy { reps }
    }

    /// Solve a whole table's worth of targets at once: identical counter
    /// vectors (bit-for-bit) solve a single QP, and the unique solves fan
    /// out across the [`siesta_par`] worker pool. Results come back in
    /// input order, so the output is bit-identical at any thread count —
    /// and identical to calling [`ProxySearcher::search`] per target,
    /// since the solver is deterministic.
    pub fn search_batch(&self, targets: &[CounterVec]) -> Vec<ComputeProxy> {
        // First-seen order keeps the unique list (and hence the parallel
        // task numbering) independent of hash-map iteration.
        let FirstSeen { class, first } =
            first_seen(targets.iter().map(|t| t.as_array().map(f64::to_bits)));
        siesta_obs::counter("proxy.batch.targets").add(targets.len() as u64);
        siesta_obs::counter("proxy.batch.unique_solves").add(first.len() as u64);
        // Small-work guard: each QP solve is ~tens of µs, so a batch only
        // pays for worker spawns past a few dozen unique solves.
        const MIN_SOLVES_TO_FAN_OUT: usize = 64;
        let solved = siesta_par::parallel_map_min_work(
            &first,
            first.len(),
            MIN_SOLVES_TO_FAN_OUT,
            |_, &i| self.search(&targets[i]),
        );
        class.into_iter().map(|u| solved[u].clone()).collect()
    }

    /// Noise-free counters the proxy produces on `machine` (for error
    /// evaluation; replay adds measurement noise on top).
    pub fn predict(&self, proxy: &ComputeProxy, machine: &Machine) -> CounterVec {
        proxy.counters_on(machine.cpu(), &self.blocks)
    }

    /// Mean relative error of the proxy against its target on `machine`,
    /// skipping metrics under the hardware measurement floor.
    pub fn error(&self, proxy: &ComputeProxy, target: &CounterVec, machine: &Machine) -> f64 {
        self.predict(proxy, machine)
            .mean_relative_error_floored(target, siesta_perfmodel::MEASUREMENT_FLOOR)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use siesta_perfmodel::{platform_a, platform_b, MpiFlavor};

    fn machine() -> Machine {
        Machine::new(platform_a(), MpiFlavor::OpenMpi)
    }

    fn searcher() -> ProxySearcher {
        ProxySearcher::new(&machine())
    }

    #[test]
    fn search_matches_stencil_kernels_well() {
        let m = machine();
        let s = searcher();
        let target = m.cpu().counters(&KernelDesc::stencil(50_000.0, 6.0, 2e6));
        let proxy = s.search(&target);
        let err = s.error(&proxy, &target, &m);
        assert!(err < 0.15, "stencil fit error {err}");
    }

    #[test]
    fn search_matches_divide_heavy_kernels() {
        let m = machine();
        let s = searcher();
        let target = m.cpu().counters(&KernelDesc::divide_heavy(20_000.0, 2.0, 1e6));
        let proxy = s.search(&target);
        let err = s.error(&proxy, &target, &m);
        assert!(err < 0.15, "divide fit error {err}");
        // The fit should lean on the divide blocks (3, 4, 6 or 9).
        let div_reps = proxy.reps[2] + proxy.reps[3] + proxy.reps[5] + proxy.reps[8];
        assert!(div_reps > 0, "no divide blocks used: {:?}", proxy.reps);
    }

    #[test]
    fn search_matches_branchy_kernels() {
        let m = machine();
        let s = searcher();
        let target = m.cpu().counters(&KernelDesc::integer_scatter(100_000.0, 8e6));
        let proxy = s.search(&target);
        let err = s.error(&proxy, &target, &m);
        // Scatter kernels are the hardest corner of the block cone: their
        // miss-per-instruction density exceeds any block's, so some error
        // is structural (the paper's "non-orthogonality" caveat). It must
        // still be far better than ignoring computation altogether.
        assert!(err < 0.3, "scatter fit error {err}");
        // Needs misprediction blocks.
        assert!(proxy.reps[4] + proxy.reps[5] > 0, "{:?}", proxy.reps);
    }

    #[test]
    fn proxies_respect_cover_constraint_after_rounding() {
        let m = machine();
        let s = searcher();
        for scale in [100.0, 10_000.0, 1_000_000.0] {
            let target = m.cpu().counters(&KernelDesc::stencil(scale, 4.0, 65536.0));
            let proxy = s.search(&target);
            let inner: u64 = proxy.reps[..9].iter().sum();
            assert!(proxy.reps[WRAPPER] >= inner);
        }
    }

    #[test]
    fn proxy_time_tracks_target_magnitude() {
        let m = machine();
        let s = searcher();
        let small = m.cpu().counters(&KernelDesc::stencil(10_000.0, 4.0, 1e5));
        let large = small * 50.0;
        let p_small = s.search(&small);
        let p_large = s.search(&large);
        let t_small = p_small.time_ns_on(m.cpu(), s.blocks());
        let t_large = p_large.time_ns_on(m.cpu(), s.blocks());
        assert!(t_large > 20.0 * t_small, "{t_small} vs {t_large}");
    }

    #[test]
    fn proxy_ports_across_platforms() {
        // The proxy is *fit* on platform A; executing the same block counts
        // on platform B must slow down roughly like the original kernel
        // does — the mechanism behind the paper's Figure 9.
        let ma = machine();
        let mb = Machine::new(platform_b(), MpiFlavor::OpenMpi);
        let s = ProxySearcher::new(&ma);
        let kernel = KernelDesc::stencil(100_000.0, 6.0, 4e6);
        let target_a = ma.cpu().counters(&kernel);
        let proxy = s.search(&target_a);
        let orig_ratio = mb.cpu().kernel_time_ns(&kernel) / ma.cpu().kernel_time_ns(&kernel);
        let proxy_ratio =
            proxy.time_ns_on(mb.cpu(), s.blocks()) / proxy.time_ns_on(ma.cpu(), s.blocks());
        assert!(orig_ratio > 1.4, "platform B should be slower");
        assert!(
            (proxy_ratio - orig_ratio).abs() / orig_ratio < 0.5,
            "proxy slowdown {proxy_ratio} vs original {orig_ratio}"
        );
    }

    #[test]
    fn batch_matches_per_target_search_at_any_width() {
        let m = machine();
        let s = searcher();
        // Duplicates on purpose: the dedup cache must hand every
        // occurrence the same solve.
        let mut targets = Vec::new();
        for scale in [1e4, 2e4, 1e4, 5e4, 2e4, 1e4, 3e4] {
            targets.push(m.cpu().counters(&KernelDesc::stencil(scale, 4.0, 1e6)));
        }
        let sequential: Vec<_> = targets.iter().map(|t| s.search(t)).collect();
        for width in [1, 2, 8] {
            let batch = siesta_par::with_threads(width, || s.search_batch(&targets));
            assert_eq!(batch, sequential, "width {width}");
        }
    }

    #[test]
    fn zero_target_produces_idle_proxy() {
        let s = searcher();
        let proxy = s.search(&CounterVec::ZERO);
        assert_eq!(proxy.total_reps(), 0);
    }
}
