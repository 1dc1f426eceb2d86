//! World setup, the run entry points, and run statistics. Every run lends
//! each rank its share of the caller's hook; an observed run also records
//! each call into the run's own collectors, which it returns.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use siesta_perfmodel::{CounterVec, Machine};

use crate::comm_matrix::CommMatrix;
use crate::engine::Engine;
use crate::hook::{PmpiHook, RankHook};
use crate::obs::{Collectors, ObsHook};
use crate::profiler::SimProfiler;
use crate::quorum::QuorumBoard;
use crate::rank::{blocked, Rank, Shared};

/// The boxed resumable state machine of one rank: what a rank body returns.
/// `'env` is the lifetime of whatever the body closure borrows (trace
/// buffers, proxy programs, …) — bodies that own their data use `'static`.
pub type RankFut<'env> =
    std::pin::Pin<Box<dyn std::future::Future<Output = Rank> + Send + 'env>>;

/// The per-run collectors a [`World`] records into after its hook and
/// returns in its [`RunStats`]. The default observes nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Observe {
    /// Tally a [`CommMatrix`].
    pub comm_matrix: bool,
    /// Record per-rank virtual-time timelines with a [`SimProfiler`].
    pub sim_profile: bool,
}

/// Configuration for one simulated MPI job.
pub struct World {
    machine: Machine,
    nranks: usize,
    hook: Option<Arc<dyn PmpiHook>>,
    observe: Observe,
}

impl World {
    /// A world of `nranks` processes on `machine`, no instrumentation.
    pub fn new(machine: Machine, nranks: usize) -> World {
        assert!(nranks >= 1, "world needs at least one rank");
        if let Some(max) = machine.platform.max_ranks() {
            assert!(
                nranks <= max,
                "platform {} hosts at most {max} ranks (requested {nranks})",
                machine.platform.name
            );
        }
        World { machine, nranks, hook: None, observe: Observe::default() }
    }

    /// Install a PMPI interposer (the tracing side of Siesta).
    pub fn with_hook(mut self, hook: Arc<dyn PmpiHook>) -> World {
        self.hook = Some(hook);
        self
    }

    /// Record into the collectors `observe` asks for (see
    /// [`World::try_run`]).
    pub fn observe(mut self, observe: Observe) -> World {
        self.observe = observe;
        self
    }

    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    pub fn nranks(&self) -> usize {
        self.nranks
    }

    /// Run `body` once per rank and collect statistics. Ranks 0..n-1 execute
    /// the same function (SPMD), branching internally as MPI programs do.
    ///
    /// The body receives its [`Rank`] by value and must return it (the
    /// idiomatic shape is `|mut rank| Box::pin(async move { …; rank })`).
    /// Ranks run as resumable state machines on a discrete-event scheduler:
    /// only *runnable* ranks occupy a worker, so worlds of a million ranks
    /// need a million small futures, not a million OS threads.
    ///
    /// Panics with a per-rank diagnosis if the program deadlocks (every
    /// unfinished rank blocked with nothing in flight to wake it).
    pub fn run<'env, F>(&self, body: F) -> RunStats
    where
        F: Fn(Rank) -> RankFut<'env> + Send + Sync,
    {
        match self.try_run(body) {
            Ok(stats) => stats,
            Err(deadlock) => panic!("{deadlock}"),
        }
    }

    /// Like [`World::run`], but reports deadlock as an error instead of
    /// panicking.
    ///
    /// Every run asks the caller's hook for each rank's own state
    /// ([`PmpiHook::for_rank`]). A run is *observed* while spans are
    /// recorded or when [`World::observe`] asked for a collector. Each
    /// call's post then feeds, after the hook, the `mpi.*` metrics and
    /// the collectors asked for, and the run records the `obs.sim.*`
    /// metrics. No collector charges overhead, so virtual time never
    /// moves. A deadlocked run returns no collectors.
    pub fn try_run<'env, F>(&self, body: F) -> Result<RunStats, Deadlock>
    where
        F: Fn(Rank) -> RankFut<'env> + Send + Sync,
    {
        siesta_obs::debug!(
            "mpisim: running {} ranks on {}{}",
            self.nranks,
            self.machine.label(),
            if self.hook.is_some() { " (hooked)" } else { "" }
        );
        let observed = siesta_obs::profiling_enabled() || self.observe != Observe::default();
        let comm_matrix = self.observe.comm_matrix.then(|| Arc::new(CommMatrix::new(self.nranks)));
        let sim_profile = self.observe.sim_profile.then(|| SimProfiler::from_env(self.nranks));
        let collectors = observed.then(|| Collectors {
            obs: ObsHook::new(),
            comm_matrix: comm_matrix.clone(),
            sim_profile: sim_profile.clone(),
        });
        let shared = Arc::new(Shared {
            engine: Engine::new(self.machine, self.nranks),
            hook: self.hook.clone(),
            hook_half_ns: self.hook.as_ref().map_or(0.0, |h| h.overhead_ns() * 0.5),
            collectors,
            collectives: QuorumBoard::new(),
            member_rounds: AtomicU64::new(0),
            splits: QuorumBoard::new(),
            nranks: self.nranks,
            blocked: (0..self.nranks).map(|_| AtomicU64::new(blocked::NONE)).collect(),
        });
        // Every rank's hook state first, then every future: the futures
        // lie side by side, so the memory they free as their ranks finish
        // joins into blocks that later allocations, the ranks' outputs
        // among them, can reuse.
        let hooks: Vec<Option<Box<dyn RankHook>>> = (0..self.nranks)
            .map(|r| shared.hook.as_ref().and_then(|h| Arc::clone(h).for_rank(r)))
            .collect();
        let futs: Vec<RankFut<'env>> = hooks
            .into_iter()
            .enumerate()
            .map(|(r, own)| body(Rank::new(shared.clone(), r, own)))
            .collect();
        let run = crate::exec::run_event(futs, observed, Rank::into_stats);
        // Which receives found their message queued depends on how ranks
        // interleave above one worker thread: observability data, gated
        // like the scheduler's own metrics. The quorum evaluator's work does
        // not, but it is engine introspection too.
        if observed {
            let (at_post, parked) = shared.engine.recv_paths();
            siesta_obs::counter("obs.sim.recv.at_post").add(at_post);
            siesta_obs::counter("obs.sim.recv.parked").add(parked);
            let member_rounds = shared.member_rounds.load(Ordering::Relaxed);
            siesta_obs::counter("obs.sim.quorum.member_rounds").add(member_rounds);
        }
        match run {
            // The executor returns results in slot order == rank order.
            Ok(per_rank) => Ok(RunStats { per_rank, comm_matrix, sim_profile }),
            Err(stuck) => Err(Deadlock {
                nranks: self.nranks,
                ranks: stuck
                    .into_iter()
                    .map(|r| (r, blocked::describe(shared.blocked[r].load(Ordering::Relaxed))))
                    .collect(),
            }),
        }
    }

}

/// A detected simulation deadlock: the scheduler went quiescent with
/// unfinished ranks. Carries a per-rank diagnosis of what each blocked rank
/// was waiting for.
#[derive(Debug)]
pub struct Deadlock {
    pub nranks: usize,
    /// `(global rank, reason)` for every blocked rank.
    pub ranks: Vec<(usize, String)>,
}

impl fmt::Display for Deadlock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "simulation deadlock: {} of {} ranks blocked with no message in flight to wake them",
            self.ranks.len(),
            self.nranks
        )?;
        const SHOWN: usize = 16;
        for (r, why) in self.ranks.iter().take(SHOWN) {
            writeln!(f, "  rank {r}: {why}")?;
        }
        if self.ranks.len() > SHOWN {
            writeln!(f, "  … and {} more", self.ranks.len() - SHOWN)?;
        }
        Ok(())
    }
}

impl std::error::Error for Deadlock {}

/// Final accounting for one rank.
#[derive(Debug, Clone, Copy)]
pub struct RankStats {
    pub rank: usize,
    /// Virtual time at which this rank finished, nanoseconds.
    pub finish_ns: f64,
    /// Cumulative computation counters.
    pub counters: CounterVec,
    /// Virtual time spent in application computation.
    pub compute_ns: f64,
    /// Virtual time spent inside MPI calls.
    pub mpi_ns: f64,
    /// Portion of `mpi_ns` spent *blocked* waiting on peers: clock jumps to
    /// externally-produced completion times (message arrival, rendezvous
    /// ack, collective quorum). The remainder is local transfer/overhead.
    pub wait_ns: f64,
    /// Application-level MPI calls made.
    pub app_calls: u64,
    /// Application payload bytes sent (outgoing contributions).
    pub bytes_sent: u64,
    /// Number of `compute` invocations.
    pub compute_events: u64,
    /// Fingerprint of this rank's event schedule in virtual time (rolling
    /// hash over every accounted MPI call's completion clock). Equal hashes
    /// ⇒ the rank made the same calls completing at the same virtual times.
    pub sched_hash: u64,
}

/// Statistics for a whole run.
#[derive(Debug, Clone)]
pub struct RunStats {
    pub per_rank: Vec<RankStats>,
    /// The run's communication matrix, if [`Observe::comm_matrix`] was set.
    pub comm_matrix: Option<Arc<CommMatrix>>,
    /// The run's virtual-time profiler, if [`Observe::sim_profile`] was set.
    pub sim_profile: Option<Arc<SimProfiler>>,
}

impl RunStats {
    /// Job completion time: the slowest rank's finish time, nanoseconds.
    pub fn elapsed_ns(&self) -> f64 {
        self.per_rank.iter().map(|r| r.finish_ns).fold(0.0, f64::max)
    }

    /// Job completion time in milliseconds.
    pub fn elapsed_ms(&self) -> f64 {
        self.elapsed_ns() / 1e6
    }

    /// Total application MPI calls across ranks.
    pub fn total_calls(&self) -> u64 {
        self.per_rank.iter().map(|r| r.app_calls).sum()
    }

    /// Total application payload bytes sent across ranks.
    pub fn total_bytes(&self) -> u64 {
        self.per_rank.iter().map(|r| r.bytes_sent).sum()
    }

    /// Whole-run schedule fingerprint: per-rank schedule hashes folded in
    /// rank order. Byte-identical schedules — across worker counts and
    /// across the threaded/event executors — produce equal hashes.
    pub fn schedule_hash(&self) -> u64 {
        self.per_rank.iter().fold(0x5c4ed01eu64, |acc, r| {
            siesta_perfmodel::noise::combine(&[acc, r.rank as u64, r.sched_hash])
        })
    }

    /// Sum of computation counters over all ranks.
    pub fn total_counters(&self) -> CounterVec {
        self.per_rank
            .iter()
            .fold(CounterVec::ZERO, |acc, r| acc + r.counters)
    }

    /// Mean over ranks of the per-rank mean relative counter error against
    /// a reference run — the paper's Table 3 "Error" aggregation (averaged
    /// "across all the metrics and processes"). Metrics below the hardware
    /// measurement floor are skipped: their relative errors are noise.
    pub fn mean_counter_error(&self, reference: &RunStats) -> f64 {
        assert_eq!(self.per_rank.len(), reference.per_rank.len());
        let n = self.per_rank.len() as f64;
        self.per_rank
            .iter()
            .zip(&reference.per_rank)
            .map(|(a, b)| {
                a.counters.mean_relative_error_floored(
                    &b.counters,
                    siesta_perfmodel::MEASUREMENT_FLOOR,
                )
            })
            .sum::<f64>()
            / n
    }

    /// Relative execution-time error against a reference run
    /// (`|T_gen − T_app| / T_app`, the Figs 6–9 metric).
    pub fn time_error(&self, reference: &RunStats) -> f64 {
        let t_ref = reference.elapsed_ns();
        if t_ref == 0.0 {
            return 0.0;
        }
        (self.elapsed_ns() - t_ref).abs() / t_ref
    }
}
