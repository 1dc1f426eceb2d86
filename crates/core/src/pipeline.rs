//! The end-to-end Siesta pipeline (paper Figure 1).
//!
//! ```text
//! MPI program ──trace──▶ per-rank event tables + run-length grammars
//!                        (Sequitur, fed as the calls complete)
//!              ──merge──▶ global terminal table (log₂P tree); grammars
//!                        relabeled to global ids
//!              ──merge──▶ job-wide grammar with rank-listed main rules
//!       ──proxy search──▶ block combinations per computation event
//!            ──codegen──▶ ProxyProgram (C source + replayable IR)
//! ```

use std::sync::Arc;

use siesta_codegen::{ProxyProgram, TerminalOp};
use siesta_grammar::{build_rank_grammars, merge_grammars, Grammar, MergeConfig};
use siesta_mpisim::{Observe, Rank, RankFut, RunStats, World};
use siesta_obs::{histogram, span};
use siesta_perfmodel::Machine;
use siesta_proxy::{shrink_counters, CommShrink, ProxySearcher, BLOCKS_C_SOURCE};
use siesta_trace::{
    merge_streamed, merge_tables, serialize, CommEvent, EventRecord, GlobalTrace, Recorder,
    StreamedGlobal, StreamedTrace, TraceConfig,
};

/// Configuration of one synthesis.
#[derive(Debug, Clone, Copy)]
pub struct SiestaConfig {
    pub trace: TraceConfig,
    pub merge: MergeConfig,
    /// Shrinking factor (Section 2.7): 1.0 emits a full-size proxy; the
    /// paper's default shrunk proxy uses 10.0.
    pub scale: f64,
    /// How [`Siesta::synthesize_run`] turns the recorded grammars into
    /// global ones. `true` (the default) lifts each rank's grammar through
    /// the table merge without expanding it ([`Siesta::synthesize`]).
    /// `false` expands every rank through [`merge_tables`] and rebuilds
    /// its grammar with Sequitur ([`Siesta::synthesize_global`]): the
    /// reference the lift must match byte for byte, kept to measure what
    /// the lift saves.
    pub stream: bool,
    /// Collectors the traced run records into beside the recorder; the
    /// traced [`RunStats`] returns them.
    pub observe: Observe,
}

impl Default for SiestaConfig {
    fn default() -> Self {
        SiestaConfig {
            trace: TraceConfig::default(),
            merge: MergeConfig::default(),
            scale: 1.0,
            stream: true,
            observe: Observe::default(),
        }
    }
}

impl SiestaConfig {
    /// The paper's Siesta-scaled configuration (factor 10).
    pub fn scaled() -> SiestaConfig {
        SiestaConfig { scale: 10.0, ..SiestaConfig::default() }
    }
}

/// Size and quality accounting of one synthesis (feeds Table 3).
#[derive(Debug, Clone)]
pub struct SynthesisStats {
    /// Modeled size of the uncompressed trace files.
    pub raw_trace_bytes: usize,
    /// Modeled size of the exported compressed representation: terminal
    /// table + grammar + computation block code (the paper's `size_C`).
    pub size_c_bytes: usize,
    pub num_terminals: usize,
    pub num_comm_terminals: usize,
    pub num_compute_terminals: usize,
    pub num_rules: usize,
    pub num_mains: usize,
    pub grammar_size: usize,
    /// ⌈log₂P⌉ table-merge rounds.
    pub merge_rounds: u32,
    /// Mean proxy fit error over compute terminals (generation machine).
    pub mean_fit_error: f64,
}

impl SynthesisStats {
    /// Compression ratio raw-trace : size_C.
    pub fn compression_ratio(&self) -> f64 {
        self.raw_trace_bytes as f64 / self.size_c_bytes.max(1) as f64
    }
}

/// A completed synthesis: the proxy program plus its accounting.
#[derive(Debug, Clone)]
pub struct Synthesis {
    pub program: ProxyProgram,
    pub stats: SynthesisStats,
}

/// The Siesta synthesizer.
#[derive(Debug, Clone, Default)]
pub struct Siesta {
    pub config: SiestaConfig,
}

impl Siesta {
    pub fn new(config: SiestaConfig) -> Siesta {
        Siesta { config }
    }

    /// Trace an MPI program: runs it with the PMPI recorder installed. Each
    /// rank buffers a bounded number of interned event ids, a longer
    /// stream drains into the rank's online Sequitur as calls complete,
    /// and streams that fit the buffer are built at the end, once per
    /// distinct stream. Returns per-rank tables + local-id grammars and
    /// the (instrumented) run statistics, which carry the collectors
    /// [`SiestaConfig::observe`] asked for.
    pub fn trace_run<'env, F>(
        &self,
        machine: Machine,
        nranks: usize,
        body: F,
    ) -> (StreamedTrace, RunStats)
    where
        F: Fn(Rank) -> RankFut<'env> + Send + Sync,
    {
        let _span = span!("trace", nranks = nranks);
        let recorder = Arc::new(Recorder::new_streaming(nranks, self.config.trace));
        let stats = World::new(machine, nranks)
            .with_hook(recorder.clone())
            .observe(self.config.observe)
            .run(body);
        (recorder.finish_streamed(), stats)
    }

    /// Synthesize a proxy-app from a trace. `gen_machine` is the machine
    /// the proxy is generated on (block micro-benchmarks and the comm
    /// shrinking regression run there). The per-rank grammars already
    /// exist (built by the recorder); the table merge lifts them to
    /// global ids by terminal relabeling instead of re-running Sequitur.
    pub fn synthesize(&self, trace: StreamedTrace, gen_machine: &Machine) -> Synthesis {
        let sg = self.merge_streamed(trace);
        self.synthesize_streamed_global(sg, gen_machine)
    }

    /// Synthesize from flat merged sequences, rebuilding every rank's
    /// grammar with Sequitur: the lift's rebuild reference, which must
    /// match [`synthesize_streamed_global`](Siesta::synthesize_streamed_global)
    /// byte for byte.
    pub fn synthesize_global(&self, global: GlobalTrace, gen_machine: &Machine) -> Synthesis {
        let _span = span!("synthesize", nranks = global.nranks);
        // Width is reported as a gauge, never as a span arg: span args are
        // part of the canonical (cross-width byte-identical) trace, and
        // `par.threads` is exactly the thing allowed to vary between runs.
        siesta_obs::gauge("par.threads").set(siesta_par::threads() as i64);

        // Intra-process grammars (one pool task per unique sequence), then
        // the inter-process merge. Collection is index-ordered and
        // memoization assigns in first-seen order, so the merged grammar is
        // identical at any thread count.
        let grammars: Vec<Arc<Grammar>> = {
            let _span = span!("sequitur-fanout", ranks = global.nranks);
            build_rank_grammars(&global.seqs, true)
        };
        self.finish_synthesis(
            global.nranks,
            &global.table,
            global.raw_bytes,
            global.merge_rounds,
            &grammars,
            gen_machine,
        )
    }

    /// The streaming table merge + grammar lift, exposed separately so
    /// callers can write the trace store from the [`StreamedGlobal`] before
    /// synthesis consumes it.
    pub fn merge_streamed(&self, st: StreamedTrace) -> StreamedGlobal {
        let _span = span!("table-merge", nranks = st.nranks);
        merge_streamed(st)
    }

    /// Back half of [`synthesize`](Siesta::synthesize), from an
    /// already-merged streamed trace: the live one, or one loaded from a
    /// trace store — the offline half of the paper's workflow (collect
    /// the trace on the production system, synthesize anywhere).
    pub fn synthesize_streamed_global(
        &self,
        sg: StreamedGlobal,
        gen_machine: &Machine,
    ) -> Synthesis {
        let _span = span!("synthesize", nranks = sg.nranks);
        siesta_obs::gauge("par.threads").set(siesta_par::threads() as i64);
        self.finish_synthesis(
            sg.nranks,
            &sg.table,
            sg.raw_bytes,
            sg.merge_rounds,
            &sg.grammars,
            gen_machine,
        )
    }

    /// Shared synthesis back half: inter-process grammar merge, proxy
    /// search, codegen, accounting. The lift and the rebuild land here
    /// with the same (byte-identical) table and per-rank grammars.
    fn finish_synthesis(
        &self,
        nranks: usize,
        table: &[EventRecord],
        raw_bytes: usize,
        merge_rounds: u32,
        grammars: &[Arc<Grammar>],
        gen_machine: &Machine,
    ) -> Synthesis {
        let merged = {
            let _span = span!("grammar-merge", grammars = grammars.len());
            merge_grammars(grammars, &self.config.merge)
        };

        // Computation proxies and communication shrinking. The QP solves
        // fan out over unique counter vectors (batch dedup inside
        // `search_batch`); error accounting stays on this thread, in table
        // order, so the float sums are reproducible.
        let proxy_span = span!("proxy-search", events = table.len());
        let searcher = ProxySearcher::new(gen_machine);
        let comm_shrink = CommShrink::fit(&gen_machine.net);
        let fit_error_hist = histogram("proxy.fit_error_bp");
        let mut fit_error_sum = 0.0;
        let mut fit_error_n = 0usize;
        let compute_targets: Vec<_> = table
            .iter()
            .filter_map(|rec| match rec {
                EventRecord::Compute(stats) => {
                    Some(shrink_counters(&stats.mean(), self.config.scale))
                }
                EventRecord::Comm(_) => None,
            })
            .collect();
        let proxies = searcher.search_batch(&compute_targets);
        let mut solved = compute_targets.iter().zip(proxies);
        let terminals: Vec<TerminalOp> = table
            .iter()
            .map(|rec| match rec {
                EventRecord::Compute(_) => {
                    let (target, proxy) = solved.next().expect("one proxy per compute event");
                    let err = searcher.error(&proxy, target, gen_machine);
                    // Fit error in basis points (1e-4), so the log2
                    // histogram resolves the sub-percent range.
                    fit_error_hist.record((err * 1e4).round().max(0.0) as u64);
                    fit_error_sum += err;
                    fit_error_n += 1;
                    TerminalOp::Compute { proxy, target: *target }
                }
                EventRecord::Comm(e) => {
                    TerminalOp::Comm(shrink_comm(e, &comm_shrink, self.config.scale))
                }
            })
            .collect();
        drop(proxy_span);

        let _codegen_span = span!("codegen", terminals = terminals.len());
        let program = ProxyProgram {
            nranks,
            terminals,
            rules: merged.rules,
            mains: merged.mains,
            scale: self.config.scale,
            generated_on: gen_machine.label(),
        };

        let stats = SynthesisStats {
            raw_trace_bytes: raw_bytes,
            size_c_bytes: size_c(table, &program),
            num_terminals: program.terminals.len(),
            num_comm_terminals: program.comm_terminals(),
            num_compute_terminals: program.compute_terminals(),
            num_rules: program.rules.len(),
            num_mains: program.mains.len(),
            grammar_size: program.grammar_size(),
            merge_rounds,
            mean_fit_error: if fit_error_n > 0 {
                fit_error_sum / fit_error_n as f64
            } else {
                0.0
            },
        };
        Synthesis { program, stats }
    }

    /// Convenience: trace a program and synthesize in one step, lifting
    /// the recorded grammars, or rebuilding them with `stream: false`.
    /// Both produce byte-identical syntheses.
    pub fn synthesize_run<'env, F>(
        &self,
        machine: Machine,
        nranks: usize,
        body: F,
    ) -> (Synthesis, RunStats)
    where
        F: Fn(Rank) -> RankFut<'env> + Send + Sync,
    {
        let (trace, traced_stats) = self.trace_run(machine, nranks, body);
        let synthesis = if self.config.stream {
            self.synthesize(trace, &machine)
        } else {
            let global = {
                let _span = span!("table-merge", nranks = trace.nranks);
                merge_tables(trace)
            };
            self.synthesize_global(global, &machine)
        };
        (synthesis, traced_stats)
    }
}

/// The exported representation size (`size_C`): terminal table + serialized
/// grammar symbols + main-rule rank lists + the block code emitted once.
fn size_c(table: &[EventRecord], program: &ProxyProgram) -> usize {
    let table = serialize::table_bytes(table);
    let rule_syms: usize = program.rules.iter().map(|r| r.len()).sum();
    let main_syms: usize = program.mains.iter().map(|m| m.body.len()).sum();
    let rank_ranges: usize = program
        .mains
        .iter()
        .flat_map(|m| m.body.iter())
        .map(|s| s.ranks.ranges().len())
        .sum();
    table
        + (rule_syms + main_syms) * serialize::GRAMMAR_SYM_BYTES
        + rank_ranges * serialize::RANK_RANGE_BYTES
        + BLOCKS_C_SOURCE.len()
}

/// Shrink the volume of a communication event by the scaling factor
/// (Section 2.7). Point-to-point and rooted/unrooted collective volumes go
/// through the regression model; `alltoallv`/`gatherv`/`scatterv` count
/// vectors shrink proportionally (their per-peer chunks are below the
/// regression's latency floor).
fn shrink_comm(e: &CommEvent, s: &CommShrink, k: f64) -> CommEvent {
    let mut e = e.clone();
    if k <= 1.0 {
        return e;
    }
    for bytes in e.sizes_mut() {
        *bytes = s.shrink_bytes(*bytes, k);
    }
    for count in e.counts_mut().flatten() {
        *count = (*count as f64 / k).round() as u64;
    }
    e
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(raw: usize, size_c: usize) -> SynthesisStats {
        SynthesisStats {
            raw_trace_bytes: raw,
            size_c_bytes: size_c,
            num_terminals: 0,
            num_comm_terminals: 0,
            num_compute_terminals: 0,
            num_rules: 0,
            num_mains: 0,
            grammar_size: 0,
            merge_rounds: 0,
            mean_fit_error: 0.0,
        }
    }

    #[test]
    fn compression_ratio_normal() {
        assert_eq!(stats(1000, 100).compression_ratio(), 10.0);
    }

    #[test]
    fn compression_ratio_zero_size_c_does_not_divide_by_zero() {
        let r = stats(1000, 0).compression_ratio();
        assert!(r.is_finite());
        assert_eq!(r, 1000.0); // clamped denominator of 1
    }

    #[test]
    fn compression_ratio_both_zero() {
        assert_eq!(stats(0, 0).compression_ratio(), 0.0);
    }

    #[test]
    fn compression_ratio_expanding_representation() {
        // A representation larger than the trace gives a ratio < 1, not an
        // error: tiny programs can legitimately expand.
        let r = stats(10, 100).compression_ratio();
        assert!(r < 1.0 && r > 0.0);
    }
}
