//! Pilgrim-like baseline (Wang, Balaji, Snir — SC'21 / TPDS'23).
//!
//! Pilgrim is a near-lossless, grammar-based MPI *communication* tracer
//! with proxy-app generation. Its key property for the paper's comparison
//! (Section 3.4.1): it replays communication faithfully but "only focuses
//! on compression and replay of communication information, without filling
//! in the execution time of the computation part" — so its proxy-apps
//! under-run the original wall time badly (the paper measures 84.30% mean
//! error).
//!
//! We model it as the Siesta pipeline with every computation terminal
//! replaced by an idle (zero-work) proxy.

use siesta_codegen::{ProxyProgram, TerminalOp};
use siesta_core::{Siesta, SiestaConfig};
use siesta_mpisim::{Rank, RankFut};
use siesta_perfmodel::{CounterVec, Machine};
use siesta_proxy::ComputeProxy;
use siesta_trace::StreamedTrace;

/// Generate a Pilgrim-style comm-only proxy from a trace.
pub fn synthesize(trace: StreamedTrace, gen_machine: &Machine) -> ProxyProgram {
    let siesta = Siesta::new(SiestaConfig::default());
    let mut synthesis = siesta.synthesize(trace, gen_machine);
    for t in synthesis.program.terminals.iter_mut() {
        if let TerminalOp::Compute { proxy, target } = t {
            *proxy = ComputeProxy::IDLE;
            *target = CounterVec::ZERO;
        }
    }
    synthesis.program
}

/// Trace a program and generate the comm-only proxy in one step.
pub fn trace_and_synthesize<'env, F>(machine: Machine, nranks: usize, body: F) -> ProxyProgram
where
    F: Fn(Rank) -> RankFut<'env> + Send + Sync,
{
    let siesta = Siesta::new(SiestaConfig::default());
    let (trace, _) = siesta.trace_run(machine, nranks, body);
    synthesize(trace, &machine)
}

#[cfg(test)]
mod tests {
    use super::*;
    use siesta_codegen::replay;
    use siesta_perfmodel::{platform_a, MpiFlavor};
    use siesta_workloads::{ProblemSize, Program};

    fn machine() -> Machine {
        Machine::new(platform_a(), MpiFlavor::OpenMpi)
    }

    #[test]
    fn pilgrim_replays_comm_but_ignores_compute_time() {
        let m = machine();
        let program = Program::Bt;
        let original = program.run(m, 9, ProblemSize::Tiny);
        let proxy = trace_and_synthesize(m, 9, program.body(ProblemSize::Tiny));
        let stats = replay(&proxy, m);
        // Comm structure intact: the run completes with the same call mix.
        assert!(stats.elapsed_ns() > 0.0);
        // But the time is way short of the original — the 84.30% claim.
        let err = stats.time_error(&original);
        assert!(
            err > 0.4,
            "pilgrim-like proxy should badly under-run: error only {:.1}%",
            err * 100.0
        );
        // And it performs (almost) no computation.
        let compute: f64 = stats.per_rank.iter().map(|r| r.compute_ns).sum();
        let orig_compute: f64 = original.per_rank.iter().map(|r| r.compute_ns).sum();
        assert!(compute < 0.05 * orig_compute);
    }

    #[test]
    fn pilgrim_keeps_comm_terminals_intact() {
        let m = machine();
        let program = Program::Is;
        let siesta = Siesta::new(SiestaConfig::default());
        let (trace, _) = siesta.trace_run(m, 8, program.body(ProblemSize::Tiny));
        let (trace2, _) = siesta.trace_run(m, 8, program.body(ProblemSize::Tiny));
        let full = siesta.synthesize(trace, &m).program;
        let comm_only = synthesize(trace2, &m);
        let comms = |p: &ProxyProgram| {
            p.terminals
                .iter()
                .filter(|t| t.is_comm())
                .cloned()
                .collect::<Vec<_>>()
        };
        assert_eq!(comms(&full), comms(&comm_only));
    }
}
