//! ScalaBench-like baseline (Wu, Deshpande, Mueller — IPDPS 2012, built on
//! ScalaTrace v4).
//!
//! ScalaBench generates proxy-apps from ScalaTrace's RSD-compressed traces.
//! Its design choices — the exact ones the paper's comparison targets — are:
//!
//! * **Greedy RSD loop compression with relaxed matching**: repeated call
//!   sequences fold into loops, and calls match on their *shape* (function,
//!   partner, tag, communicator) while parameter values (volumes) are
//!   pooled into histograms. Replay draws a representative volume, so "the
//!   communication mode of the original program cannot be completely
//!   restored" (Section 3.4.2).
//! * **Sleep-based computation replay**: computation intervals are recorded
//!   as wall-time gaps on the generation platform and replayed as fixed
//!   sleeps — so proxy time does not move when the platform changes
//!   (Figures 8–9's "execution time of ScalaBench is almost unchanged").
//! * **No communicator management**: programs that split or duplicate
//!   communicators (the FLASH family) are rejected at generation time, as
//!   the paper reports ("ScalaBench gets crashed ... for certain programs").

use std::future::Future;
use std::pin::Pin;
use std::sync::{Arc, Mutex};

use siesta_codegen::{exec_comm, ReplayCtx};
use siesta_mpisim::{HookCtx, MpiCall, PmpiHook, Rank, RankFut, RunStats, World};
use siesta_perfmodel::Machine;
use siesta_trace::{CommEvent, Normalizer};

/// Why generation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BaselineError {
    /// The trace uses a feature the tool cannot replay.
    Unsupported(String),
}

impl std::fmt::Display for BaselineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BaselineError::Unsupported(what) => {
                write!(f, "ScalaBench-like generation failed: unsupported {what}")
            }
        }
    }
}

impl std::error::Error for BaselineError {}

// ---------------------------------------------------------------------
// Recording
// ---------------------------------------------------------------------

struct RawEvent {
    event: CommEvent,
    /// Computation gap preceding this call, in wall-clock nanoseconds on
    /// the generation platform.
    gap_ns: f64,
}

#[derive(Default)]
struct RankLog {
    events: Vec<RawEvent>,
    normalizer: Option<Normalizer>,
    last_mpi_exit: f64,
    unsupported: Option<String>,
}

struct ScalaRecorder {
    per_rank: Vec<Mutex<RankLog>>,
}

impl PmpiHook for ScalaRecorder {
    fn post(&self, ctx: &HookCtx, call: &MpiCall) {
        let mut log = self.per_rank[ctx.rank].lock().unwrap();
        if log.normalizer.is_none() {
            log.normalizer = Some(Normalizer::new());
        }
        if log.unsupported.is_some() {
            return;
        }
        if matches!(
            call,
            MpiCall::CommSplit { .. } | MpiCall::CommDup { .. } | MpiCall::CommFree { .. }
        ) {
            log.unsupported = Some(format!("communicator management ({})", call.func_name()));
            return;
        }
        // Gap = time from the previous MPI call's return to this call's
        // entry.
        let gap_ns = (ctx.call_start_ns - log.last_mpi_exit).max(0.0);
        log.last_mpi_exit = ctx.clock_ns;
        let mut norm = log.normalizer.take().expect("initialized above");
        let event = norm.normalize(ctx, call);
        log.normalizer = Some(norm);
        log.events.push(RawEvent { event, gap_ns });
    }

    fn overhead_ns(&self) -> f64 {
        400.0 // no counter reads, only timestamps and records
    }
}

// ---------------------------------------------------------------------
// Volume histograms and shapes
// ---------------------------------------------------------------------

/// ScalaTrace-style parameter histogram: volumes land in power-of-two
/// bins, and replay draws the *bin center* — even a constant volume replays
/// as its bin's representative, which is the histogram step that keeps the
/// original communication from being "completely restored" (Section 3.4.2).
#[derive(Debug, Clone, PartialEq)]
pub struct ValueHist {
    bins: [u32; 48],
    pub min: u64,
    pub max: u64,
}

impl ValueHist {
    fn of(v: u64) -> ValueHist {
        let mut h = ValueHist { bins: [0; 48], min: v, max: v };
        h.bins[Self::bin(v)] = 1;
        h
    }

    fn bin(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            (64 - v.leading_zeros() as usize).min(47)
        }
    }

    fn merge(&mut self, other: &ValueHist) {
        for (a, b) in self.bins.iter_mut().zip(&other.bins) {
            *a += b;
        }
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Center of the most-populated bin (ties: smaller bin).
    pub fn representative(&self) -> u64 {
        let best = self
            .bins
            .iter()
            .enumerate()
            .max_by_key(|&(i, c)| (*c, std::cmp::Reverse(i)))
            .map(|(i, _)| i)
            .unwrap_or(0);
        if best == 0 {
            0
        } else {
            // Bin `k` holds [2^(k−1), 2^k); its center is 1.5·2^(k−1).
            3u64 << (best - 1) >> 1
        }
    }

    /// True when replay will not reproduce the recorded volumes exactly.
    pub fn lossy(&self) -> bool {
        self.min != self.max || self.representative() != self.min
    }
}

#[derive(Debug, Clone, PartialEq)]
struct FloatStat {
    sum: f64,
    count: u64,
}

impl FloatStat {
    fn of(v: f64) -> FloatStat {
        FloatStat { sum: v, count: 1 }
    }
    fn merge(&mut self, o: &FloatStat) {
        self.sum += o.sum;
        self.count += o.count;
    }
    fn mean(&self) -> f64 {
        self.sum / self.count.max(1) as f64
    }
}

// ---------------------------------------------------------------------
// RSD program
// ---------------------------------------------------------------------

/// One compressed slot: an event shape plus pooled parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct Slot {
    shape: CommEvent,
    vols: Vec<ValueHist>,
    gap: FloatStat,
}

/// A regular-section-descriptor item.
#[derive(Debug, Clone, PartialEq)]
pub enum RsdItem {
    Ev(Slot),
    Loop { body: Vec<RsdItem>, count: u64 },
}

impl RsdItem {
    fn same_shape(&self, other: &RsdItem) -> bool {
        match (self, other) {
            (RsdItem::Ev(a), RsdItem::Ev(b)) => a.shape == b.shape,
            (RsdItem::Loop { body: a, count: ca }, RsdItem::Loop { body: b, count: cb }) => {
                // Loops match structurally when their bodies match; counts
                // merge (ScalaTrace's iteration pooling).
                ca == cb
                    && a.len() == b.len()
                    && a.iter().zip(b).all(|(x, y)| x.same_shape(y))
            }
            _ => false,
        }
    }

    fn merge_from(&mut self, other: &RsdItem) {
        match (self, other) {
            (RsdItem::Ev(a), RsdItem::Ev(b)) => {
                for (h, o) in a.vols.iter_mut().zip(&b.vols) {
                    h.merge(o);
                }
                a.gap.merge(&b.gap);
            }
            (RsdItem::Loop { body: a, .. }, RsdItem::Loop { body: b, .. }) => {
                for (x, y) in a.iter_mut().zip(b) {
                    x.merge_from(y);
                }
            }
            _ => unreachable!("merge_from called on mismatched shapes"),
        }
    }

    fn len_items(&self) -> usize {
        match self {
            RsdItem::Ev(_) => 1,
            RsdItem::Loop { body, .. } => 1 + body.iter().map(|i| i.len_items()).sum::<usize>(),
        }
    }
}

/// Longest repeat window the greedy folder considers.
const MAX_WINDOW: usize = 64;

/// Greedy online tandem-repeat folding, ScalaTrace style: after each push,
/// try to fold the tail `[..w][..w]` into a loop for the smallest matching
/// window.
fn compress(events: Vec<RawEvent>) -> Vec<RsdItem> {
    let mut out: Vec<RsdItem> = Vec::new();
    for raw in events {
        // Relaxed matching: the shape is the event with its volumes
        // zeroed, so iterations that differ only in message size fold,
        // and the volumes pool into histograms.
        let mut shape = raw.event;
        let vols = shape.volumes_mut().map(|v| ValueHist::of(std::mem::take(v))).collect();
        out.push(RsdItem::Ev(Slot { shape, vols, gap: FloatStat::of(raw.gap_ns) }));
        fold_tail(&mut out);
    }
    out
}

fn fold_tail(out: &mut Vec<RsdItem>) {
    loop {
        let mut folded = false;
        // Tandem folds (case 1) need 2w items; loop extension (case 3)
        // needs only w+1, so the window range must not be halved.
        for w in 1..=MAX_WINDOW.min(out.len().saturating_sub(1)) {
            let n = out.len();
            if n >= 2 * w {
                let (head, tail) = out.split_at(n - w);
                let prev = &head[head.len() - w..];
                if prev.iter().zip(tail).all(|(a, b)| a.same_shape(b)) {
                    let tail_items: Vec<RsdItem> = out.drain(n - w..).collect();
                    let prev_start = out.len() - w;
                    // Merge tail statistics into prev, then wrap prev into a
                    // loop (or bump its count when prev is itself one loop).
                    let mut merged: Vec<RsdItem> = out.drain(prev_start..).collect();
                    for (m, t) in merged.iter_mut().zip(&tail_items) {
                        m.merge_from(t);
                    }
                    if merged.len() == 1 {
                        if let RsdItem::Loop { count, .. } = &mut merged[0] {
                            *count *= 2;
                            out.push(merged.pop().expect("one item"));
                            folded = true;
                            break;
                        }
                    }
                    out.push(RsdItem::Loop { body: merged, count: 2 });
                    folded = true;
                    break;
                }
            }
            // Case 3: the item(s) before the tail form a loop whose body
            // matches the tail → increment the loop count.
            if n > w {
                let tail_matches = {
                    let (head, tail) = out.split_at(n - w);
                    let loop_pos = head.len() - 1;
                    match &head[loop_pos] {
                        RsdItem::Loop { body, .. } => {
                            body.len() == w
                                && body.iter().zip(tail).all(|(a, b)| a.same_shape(b))
                        }
                        _ => false,
                    }
                };
                if tail_matches {
                    let tail_items: Vec<RsdItem> = out.drain(n - w..).collect();
                    let loop_pos = out.len() - 1;
                    if let RsdItem::Loop { body, count } = &mut out[loop_pos] {
                        for (m, t) in body.iter_mut().zip(&tail_items) {
                            m.merge_from(t);
                        }
                        *count += 1;
                    }
                    folded = true;
                    break;
                }
            }
        }
        if !folded {
            return;
        }
    }
}

// ---------------------------------------------------------------------
// The generated app
// ---------------------------------------------------------------------

/// A generated ScalaBench-style proxy-app: one RSD program per rank.
#[derive(Debug, Clone)]
pub struct ScalaApp {
    pub nranks: usize,
    programs: Vec<Vec<RsdItem>>,
}

impl ScalaApp {
    /// Compressed item count across ranks (a size diagnostic).
    pub fn total_items(&self) -> usize {
        self.programs.iter().flat_map(|p| p.iter()).map(|i| i.len_items()).sum()
    }

    /// Does any pooled volume differ from the original (information loss)?
    pub fn is_lossy(&self) -> bool {
        fn item_lossy(i: &RsdItem) -> bool {
            match i {
                RsdItem::Ev(s) => s.vols.iter().any(|h| h.lossy()),
                RsdItem::Loop { body, .. } => body.iter().any(item_lossy),
            }
        }
        self.programs.iter().flat_map(|p| p.iter()).any(item_lossy)
    }

    /// Replay on a machine. Computation gaps replay as fixed sleeps
    /// (recorded on the generation platform), communication replays with
    /// histogram-representative volumes.
    pub fn replay(&self, machine: Machine) -> RunStats {
        World::new(machine, self.nranks).run(|mut rank| {
            Box::pin(async move {
                let mut ctx = ReplayCtx::new(&rank);
                for item in &self.programs[rank.rank()] {
                    replay_item(&mut rank, item, &mut ctx).await;
                }
                rank
            })
        })
    }
}

/// RSD loops nest, and async fns cannot recurse without indirection, so
/// each level returns a boxed future.
fn replay_item<'a>(
    rank: &'a mut Rank,
    item: &'a RsdItem,
    ctx: &'a mut ReplayCtx,
) -> Pin<Box<dyn Future<Output = ()> + Send + 'a>> {
    Box::pin(async move {
        match item {
            RsdItem::Loop { body, count } => {
                for _ in 0..*count {
                    for i in body {
                        replay_item(rank, i, ctx).await;
                    }
                }
            }
            RsdItem::Ev(slot) => {
                rank.sleep_ns(slot.gap.mean());
                let mut event = slot.shape.clone();
                for (v, h) in event.volumes_mut().zip(&slot.vols) {
                    *v = h.representative();
                }
                exec_comm(rank, &event, ctx).await;
            }
        }
    })
}

// ---------------------------------------------------------------------
// Generation entry point
// ---------------------------------------------------------------------

/// Trace a program and generate a ScalaBench-style proxy.
pub fn trace_and_synthesize<'env, F>(
    machine: Machine,
    nranks: usize,
    body: F,
) -> Result<ScalaApp, BaselineError>
where
    F: Fn(Rank) -> RankFut<'env> + Send + Sync,
{
    let recorder = Arc::new(ScalaRecorder {
        per_rank: (0..nranks).map(|_| Mutex::new(RankLog::default())).collect(),
    });
    let hook: Arc<dyn PmpiHook> = recorder.clone();
    World::new(machine, nranks).with_hook(hook).run(body);
    let mut programs = Vec::with_capacity(nranks);
    for cell in recorder.per_rank.iter() {
        let log = std::mem::take(&mut *cell.lock().unwrap());
        if let Some(what) = log.unsupported {
            return Err(BaselineError::Unsupported(what));
        }
        programs.push(compress(log.events));
    }
    Ok(ScalaApp { nranks, programs })
}

#[cfg(test)]
mod tests {
    use super::*;
    use siesta_perfmodel::{platform_a, platform_b, MpiFlavor};
    use siesta_workloads::{ProblemSize, Program};

    fn machine() -> Machine {
        Machine::new(platform_a(), MpiFlavor::OpenMpi)
    }

    fn generate(program: Program, nprocs: usize) -> Result<ScalaApp, BaselineError> {
        trace_and_synthesize(machine(), nprocs, program.body(ProblemSize::Tiny))
    }

    #[test]
    fn rejects_flash_comm_management() {
        for program in [Program::Sedov, Program::Sod, Program::StirTurb] {
            let err = generate(program, 8).expect_err("FLASH must be rejected");
            assert!(matches!(err, BaselineError::Unsupported(_)), "{program:?}");
        }
    }

    #[test]
    fn generates_and_replays_npb() {
        for (program, nprocs) in [(Program::Bt, 9), (Program::Cg, 8), (Program::Is, 8)] {
            let app = generate(program, nprocs).expect("generation succeeds");
            let original = program.run(machine(), nprocs, ProblemSize::Tiny);
            let stats = app.replay(machine());
            // Same-platform replay lands near the original (sleeps reproduce
            // the generation platform's compute time).
            let err = stats.time_error(&original);
            assert!(
                err < 0.30,
                "{}: same-platform error {:.1}%",
                program.name(),
                err * 100.0
            );
        }
    }

    #[test]
    fn rsd_compression_folds_iterations() {
        let app = generate(Program::Sweep3d, 8).unwrap();
        let original = Program::Sweep3d.run(machine(), 8, ProblemSize::Tiny);
        let events_per_rank = original.per_rank[0].app_calls as usize;
        let items = app.total_items() / 8;
        assert!(
            items * 2 < events_per_rank,
            "RSD did not compress: {items} items vs {events_per_rank} events"
        );
    }

    #[test]
    fn histogram_pooling_is_lossy_for_mg() {
        // MG's halo volumes shrink per level; relaxed matching pools them.
        let app = generate(Program::Mg, 8).unwrap();
        assert!(app.is_lossy(), "expected pooled volumes to lose information");
    }

    #[test]
    fn sleep_replay_ignores_platform_changes() {
        // The Figure 9 failure mode: generate on A, replay on B — the
        // compute time barely moves although B is much slower.
        let program = Program::Cg;
        let app = generate(program, 8).unwrap();
        let on_a = app.replay(machine());
        let on_b = app.replay(Machine::new(platform_b(), MpiFlavor::OpenMpi));
        let orig_b = program.run(
            Machine::new(platform_b(), MpiFlavor::OpenMpi),
            8,
            ProblemSize::Tiny,
        );
        // The proxy hardly slows down on B...
        assert!(on_b.elapsed_ns() < 1.5 * on_a.elapsed_ns());
        // ...but the original does, so the error is large.
        let err = on_b.time_error(&orig_b);
        assert!(
            err > 0.3,
            "expected large cross-platform error, got {:.1}%",
            err * 100.0
        );
    }

    #[test]
    fn compression_is_deterministic() {
        let a = generate(Program::Bt, 9).unwrap();
        let b = generate(Program::Bt, 9).unwrap();
        assert_eq!(a.total_items(), b.total_items());
        assert_eq!(a.replay(machine()).elapsed_ns(), b.replay(machine()).elapsed_ns());
    }
}
