//! Flight-recorder spans: lock-free per-thread sharded recording with
//! RAII guards.
//!
//! `span!("sequitur", rank = r)` returns a [`SpanGuard`]; dropping it
//! commits a [`FinishedSpan`] into the calling thread's **shard** — a
//! chunked, single-writer slot buffer registered in a global shard list.
//! The commit path takes **no locks and performs no heap allocation** for
//! a no-arg span: it writes one seqlock-protected slot of plain atomic
//! words and bumps the shard's committed count. When profiling is
//! disabled (the default) the macro performs a single relaxed atomic load
//! and returns an inert guard without formatting its arguments, so
//! instrumented hot paths stay effectively free.
//!
//! # Shard lifecycle
//!
//! Each recording thread lazily registers one leaked shard on its first
//! span (worker threads of the `siesta-par` pool register eagerly at
//! spawn, so even the first span on a worker is registration-free). A
//! shard starts with one pre-allocated chunk of [`CHUNK`] slots and grows
//! by whole chunks — one allocation per `CHUNK` spans, never per span.
//! Chunks are reused across drains and live for the process.
//!
//! # Bounded mode
//!
//! With a capacity set (`SIESTA_OBS_CAP` env var or
//! [`set_span_capacity`], surfaced as `--obs-cap` on the CLI), each shard
//! becomes a ring of that many slots: the writer wraps and overwrites the
//! oldest spans, and [`drain`] reports exactly how many were lost. Long
//! runs get bounded memory; the newest spans always survive.
//!
//! # Draining
//!
//! [`drain`] snapshots every shard's committed spans, merge-sorts them by
//! `(start_ns, tid, name)` — a deterministic order, so exports are
//! byte-stable — and advances a global epoch; each writer resets its own
//! shard on the first push of a new epoch. Spans committed *while* a
//! drain is in flight may land in the retiring epoch and be lost, so
//! drain at quiescence (the CLI drains after the pipeline returns; the
//! pool's workers are parked by then). A slot overwritten mid-read is
//! detected by its sequence counter and counted as dropped, never torn.
//!
//! Timestamps are nanoseconds since the first use of the clock in this
//! process (a monotonic epoch), which maps directly onto the Chrome
//! trace-event `ts` field after dividing by 1000.

use std::cell::Cell;
use std::sync::atomic::{
    fence, AtomicBool, AtomicPtr, AtomicU32, AtomicU64, AtomicUsize, Ordering,
};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::intern::ArgsId;

/// Master switch. Off by default; flipped by `--profile`.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Is span collection on? One relaxed load; call before doing any work
/// whose only purpose is feeding the profiler.
#[inline]
pub fn profiling_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

pub fn set_profiling_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the process-local monotonic epoch.
#[inline]
pub fn clock_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

static NEXT_TID: AtomicU32 = AtomicU32::new(1);

thread_local! {
    /// Small dense per-thread id for the Chrome `tid` field (the OS
    /// thread id is neither stable nor compact).
    static TID: Cell<u32> = const { Cell::new(0) };
    /// Current span nesting depth on this thread.
    static DEPTH: Cell<u32> = const { Cell::new(0) };
    /// This thread's shard, once registered.
    static MY_SHARD: Cell<Option<&'static Shard>> = const { Cell::new(None) };
}

/// Small dense id of the calling thread (1, 2, …, in first-use order).
/// Stable for the thread's lifetime; shared with the span recorder's
/// Chrome `tid` field. Cheap enough for per-event sharding decisions.
#[inline]
pub fn thread_index() -> u32 {
    this_tid()
}

#[inline]
fn this_tid() -> u32 {
    TID.with(|t| {
        let v = t.get();
        if v != 0 {
            v
        } else {
            let v = NEXT_TID.fetch_add(1, Ordering::Relaxed);
            t.set(v);
            v
        }
    })
}

/// A completed span, ready for export. Plain `Copy` data: the args are an
/// interned id ([`crate::intern`]), not an owned string.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FinishedSpan {
    pub name: &'static str,
    /// Interned `key=value` pairs; [`ArgsId::NONE`] if none.
    pub args: ArgsId,
    pub tid: u32,
    pub depth: u32,
    pub start_ns: u64,
    pub dur_ns: u64,
}

impl FinishedSpan {
    /// The formatted args behind [`FinishedSpan::args`] (`""` if none).
    pub fn args_str(&self) -> &'static str {
        crate::intern::resolve(self.args)
    }
}

/// Spans per chunk. A shard's first chunk is allocated at registration,
/// so recording is allocation-free until a shard outgrows it (one chunk
/// allocation per `CHUNK` spans after that).
pub const CHUNK: usize = 1024;

/// One recording slot: a per-slot sequence counter plus the span fields
/// as plain atomic words (seqlock discipline — a reader that races a ring
/// overwrite observes a sequence mismatch and skips the slot instead of
/// tearing it).
struct Slot {
    /// 0 = never written; odd = write in progress; even > 0 = committed.
    seq: AtomicU32,
    name_ptr: AtomicUsize,
    name_len: AtomicUsize,
    /// `tid << 32 | depth`.
    meta: AtomicU64,
    args: AtomicU64,
    start_ns: AtomicU64,
    dur_ns: AtomicU64,
}

impl Slot {
    const fn new() -> Slot {
        Slot {
            seq: AtomicU32::new(0),
            name_ptr: AtomicUsize::new(0),
            name_len: AtomicUsize::new(0),
            meta: AtomicU64::new(0),
            args: AtomicU64::new(0),
            start_ns: AtomicU64::new(0),
            dur_ns: AtomicU64::new(0),
        }
    }

    /// Single-writer publish: odd sequence → fields → even sequence.
    fn write(&self, span: &FinishedSpan) {
        let s0 = self.seq.load(Ordering::Relaxed);
        self.seq.store(s0.wrapping_add(1), Ordering::Relaxed);
        fence(Ordering::Release);
        self.name_ptr.store(span.name.as_ptr() as usize, Ordering::Relaxed);
        self.name_len.store(span.name.len(), Ordering::Relaxed);
        self.meta.store(((span.tid as u64) << 32) | span.depth as u64, Ordering::Relaxed);
        self.args.store(span.args.0, Ordering::Relaxed);
        self.start_ns.store(span.start_ns, Ordering::Relaxed);
        self.dur_ns.store(span.dur_ns, Ordering::Relaxed);
        self.seq.store(s0.wrapping_add(2), Ordering::Release);
    }

    /// Validated read: `None` for an unwritten slot or one overwritten
    /// concurrently (sequence changed under us).
    fn read(&self) -> Option<FinishedSpan> {
        let s1 = self.seq.load(Ordering::Acquire);
        if s1 == 0 || s1 & 1 == 1 {
            return None;
        }
        let name_ptr = self.name_ptr.load(Ordering::Relaxed);
        let name_len = self.name_len.load(Ordering::Relaxed);
        let meta = self.meta.load(Ordering::Relaxed);
        let args = self.args.load(Ordering::Relaxed);
        let start_ns = self.start_ns.load(Ordering::Relaxed);
        let dur_ns = self.dur_ns.load(Ordering::Relaxed);
        fence(Ordering::Acquire);
        if self.seq.load(Ordering::Relaxed) != s1 {
            return None;
        }
        // The (ptr, len) pair passed the sequence check, so both words
        // come from the same committed write of a real `&'static str`.
        let name = unsafe {
            std::str::from_utf8_unchecked(std::slice::from_raw_parts(
                name_ptr as *const u8,
                name_len,
            ))
        };
        Some(FinishedSpan {
            name,
            args: ArgsId(args),
            tid: (meta >> 32) as u32,
            depth: meta as u32,
            start_ns,
            dur_ns,
        })
    }
}

struct Chunk {
    slots: Box<[Slot]>,
    next: AtomicPtr<Chunk>,
}

impl Chunk {
    fn alloc() -> *mut Chunk {
        let slots: Box<[Slot]> = (0..CHUNK).map(|_| Slot::new()).collect();
        Box::into_raw(Box::new(Chunk { slots, next: AtomicPtr::new(std::ptr::null_mut()) }))
    }
}

/// One thread's span buffer. Single writer (the owning thread); drained
/// by any thread via the committed-count/seqlock protocol. All fields are
/// atomics so the shard is `Sync` without locks; the cursor fields
/// (`tail`, `tail_pos`) are written only by the owner.
struct Shard {
    tid: u32,
    /// First chunk; allocated at registration, never replaced.
    head: AtomicPtr<Chunk>,
    /// Writer cursor: current chunk and position within it.
    tail: AtomicPtr<Chunk>,
    tail_pos: AtomicUsize,
    /// Spans pushed in the current epoch (monotonic within an epoch).
    written: AtomicU64,
    /// Drain epoch these contents belong to.
    epoch: AtomicU64,
    /// Ring capacity in slots for this epoch (0 = unbounded).
    cap: AtomicU64,
}

impl Shard {
    fn new(tid: u32) -> Shard {
        let first = Chunk::alloc();
        Shard {
            tid,
            head: AtomicPtr::new(first),
            tail: AtomicPtr::new(first),
            tail_pos: AtomicUsize::new(0),
            written: AtomicU64::new(0),
            epoch: AtomicU64::new(0),
            cap: AtomicU64::new(0),
        }
    }

    /// Commit one span. Owner thread only. Lock-free; allocates only when
    /// the shard grows past another [`CHUNK`] spans in unbounded mode.
    fn push(&self, span: &FinishedSpan) {
        let ep = SPAN_EPOCH.load(Ordering::Relaxed);
        if self.epoch.load(Ordering::Relaxed) != ep {
            // First push of a new epoch: the previous contents were
            // drained (or abandoned). Reset the cursor, re-read the cap.
            self.written.store(0, Ordering::Relaxed);
            self.cap.store(global_cap(), Ordering::Relaxed);
            self.tail.store(self.head.load(Ordering::Relaxed), Ordering::Relaxed);
            self.tail_pos.store(0, Ordering::Relaxed);
            self.epoch.store(ep, Ordering::Release);
        }
        let w = self.written.load(Ordering::Relaxed);
        let cap = self.cap.load(Ordering::Relaxed);
        if cap != 0 && w != 0 && w.is_multiple_of(cap) {
            // Ring wrap: overwrite from the first slot again.
            self.tail.store(self.head.load(Ordering::Relaxed), Ordering::Relaxed);
            self.tail_pos.store(0, Ordering::Relaxed);
        }
        let mut chunk = self.tail.load(Ordering::Relaxed);
        let mut pos = self.tail_pos.load(Ordering::Relaxed);
        if pos == CHUNK {
            let cur = unsafe { &*chunk };
            let mut next = cur.next.load(Ordering::Acquire);
            if next.is_null() {
                next = Chunk::alloc();
                cur.next.store(next, Ordering::Release);
            }
            chunk = next;
            pos = 0;
            self.tail.store(chunk, Ordering::Relaxed);
            self.tail_pos.store(0, Ordering::Relaxed);
        }
        unsafe { &*chunk }.slots[pos].write(span);
        self.tail_pos.store(pos + 1, Ordering::Relaxed);
        self.written.store(w + 1, Ordering::Release);
    }
}

/// Global drain epoch; bumped by [`drain`]. Starts at 1 so a fresh
/// shard's `epoch == 0` is always stale.
static SPAN_EPOCH: AtomicU64 = AtomicU64::new(1);

/// All registered shards (leaked, one per recording thread ever seen).
static REGISTRY: Mutex<Vec<&'static Shard>> = Mutex::new(Vec::new());

/// Per-shard slot capacity. `u64::MAX` = unset, read `SIESTA_OBS_CAP`
/// lazily; 0 = unbounded.
static CAP: AtomicU64 = AtomicU64::new(u64::MAX);

fn global_cap() -> u64 {
    let c = CAP.load(Ordering::Relaxed);
    if c != u64::MAX {
        return c;
    }
    let env = std::env::var("SIESTA_OBS_CAP")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(0);
    CAP.store(env, Ordering::Relaxed);
    env
}

/// Bound every shard to a ring of `cap` spans (0 = unbounded, the
/// default). Overrides `SIESTA_OBS_CAP`; surfaced as `--obs-cap` on the
/// CLI. Takes effect per shard at the start of its next drain epoch, so
/// set it before recording.
pub fn set_span_capacity(cap: usize) {
    CAP.store(cap as u64, Ordering::Relaxed);
}

/// The configured per-shard span capacity (0 = unbounded).
pub fn span_capacity() -> usize {
    global_cap() as usize
}

fn my_shard() -> &'static Shard {
    MY_SHARD.with(|s| match s.get() {
        Some(shard) => shard,
        None => {
            let shard: &'static Shard = Box::leak(Box::new(Shard::new(this_tid())));
            REGISTRY.lock().unwrap().push(shard);
            s.set(Some(shard));
            shard
        }
    })
}

/// Eagerly register this thread's shard (allocates its first chunk and
/// takes the registry lock once). The `siesta-par` pool calls this from
/// each worker at spawn so no lock or allocation is left on the first
/// recorded span.
pub fn register_thread() {
    let _ = my_shard();
}

/// Result of [`drain`]: the spans of the ending epoch, merge-sorted by
/// `(start_ns, tid, name)`, plus how many were dropped (ring-buffer
/// overwrites and slots caught mid-write).
#[derive(Debug, Default)]
pub struct DrainedSpans {
    pub spans: Vec<FinishedSpan>,
    pub dropped: u64,
}

/// Collect all spans recorded since the last drain and start a new epoch.
/// Deterministically ordered; see the module docs for the (documented)
/// loss window when draining concurrently with recording.
pub fn drain() -> DrainedSpans {
    let registry = REGISTRY.lock().unwrap();
    let ep = SPAN_EPOCH.load(Ordering::Relaxed);
    let mut spans = Vec::new();
    let mut dropped = 0u64;
    for shard in registry.iter() {
        if shard.epoch.load(Ordering::Acquire) != ep {
            continue; // nothing recorded this epoch
        }
        let w = shard.written.load(Ordering::Acquire);
        let cap = shard.cap.load(Ordering::Relaxed);
        let live = if cap != 0 { w.min(cap) } else { w };
        dropped += w - live;
        let mut chunk = shard.head.load(Ordering::Acquire);
        let mut remaining = live;
        while !chunk.is_null() && remaining > 0 {
            let c = unsafe { &*chunk };
            let n = (remaining as usize).min(CHUNK);
            for slot in &c.slots[..n] {
                match slot.read() {
                    Some(span) => spans.push(span),
                    // Overwritten or mid-write while we looked: lost to
                    // the ring, never torn.
                    None => dropped += 1,
                }
            }
            remaining -= n as u64;
            chunk = c.next.load(Ordering::Acquire);
        }
        debug_assert_eq!(remaining, 0, "shard {} chunk chain shorter than committed count", shard.tid);
    }
    SPAN_EPOCH.fetch_add(1, Ordering::Relaxed);
    drop(registry);
    spans.sort_by(|a, b| {
        (a.start_ns, a.tid, a.name).cmp(&(b.start_ns, b.tid, b.name))
    });
    if dropped > 0 {
        crate::metrics::counter("obs.spans_dropped").add(dropped);
    }
    DrainedSpans { spans, dropped }
}

/// Take all spans recorded so far, leaving the recorder empty — the
/// spans-only view of [`drain`].
pub fn drain_spans() -> Vec<FinishedSpan> {
    drain().spans
}

/// RAII guard returned by [`span!`](crate::span!). Records the span on drop.
#[must_use = "a span guard measures until it is dropped"]
pub struct SpanGuard {
    /// `None` when profiling was off at creation time.
    live: Option<LiveSpan>,
}

struct LiveSpan {
    name: &'static str,
    args: ArgsId,
    start_ns: u64,
    depth: u32,
}

impl SpanGuard {
    #[inline]
    pub fn disabled() -> SpanGuard {
        SpanGuard { live: None }
    }

    /// Start a span now. Prefer the [`span!`](crate::span!) macro, which
    /// skips argument formatting and interning when profiling is off.
    pub fn start(name: &'static str, args: ArgsId) -> SpanGuard {
        let depth = DEPTH.with(|d| {
            let v = d.get();
            d.set(v + 1);
            v
        });
        SpanGuard {
            live: Some(LiveSpan { name, args, start_ns: clock_ns(), depth }),
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(live) = self.live.take() {
            let dur_ns = clock_ns().saturating_sub(live.start_ns);
            DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
            my_shard().push(&FinishedSpan {
                name: live.name,
                args: live.args,
                tid: this_tid(),
                depth: live.depth,
                start_ns: live.start_ns,
                dur_ns,
            });
        }
    }
}

/// Format-and-intern helper for the [`span!`] macro: renders the args
/// into a reused thread-local buffer (no per-span `String`) and interns
/// the result.
#[doc(hidden)]
pub fn __intern_args(fill: impl FnOnce(&mut String)) -> ArgsId {
    thread_local! {
        static BUF: std::cell::RefCell<String> = const { std::cell::RefCell::new(String::new()) };
    }
    BUF.with(|b| {
        let mut buf = b.borrow_mut();
        buf.clear();
        fill(&mut buf);
        crate::intern::intern(&buf)
    })
}

/// Open a timed span: `let _g = span!("phase");` or
/// `let _g = span!("sequitur", rank = r, len = seq.len());`.
///
/// Argument values are captured with `Display` formatting into a reused
/// thread-local buffer and interned to a `u64` id — and only when
/// profiling is enabled.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        if $crate::profiling_enabled() {
            $crate::SpanGuard::start($name, $crate::intern::ArgsId::NONE)
        } else {
            $crate::SpanGuard::disabled()
        }
    };
    ($name:expr, $($key:ident = $val:expr),+ $(,)?) => {
        if $crate::profiling_enabled() {
            let args = $crate::span::__intern_args(|buf| {
                use ::std::fmt::Write as _;
                $(
                    if !buf.is_empty() {
                        buf.push(' ');
                    }
                    let _ = ::std::write!(buf, concat!(stringify!($key), "={}"), $val);
                )+
            });
            $crate::SpanGuard::start($name, args)
        } else {
            $crate::SpanGuard::disabled()
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes tests that touch the process-global recorder state
    /// (profiling switch, epoch, capacity).
    static RECORDER_LOCK: Mutex<()> = Mutex::new(());

    fn locked() -> std::sync::MutexGuard<'static, ()> {
        RECORDER_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_records_nothing() {
        let _g = locked();
        set_profiling_enabled(false);
        drain();
        {
            let _g = crate::span!("quiet", x = 1);
        }
        assert!(drain_spans().is_empty());
    }

    #[test]
    fn spans_nest_and_record() {
        let _g = locked();
        set_profiling_enabled(true);
        drain();
        {
            let _outer = crate::span!("outer");
            let _inner = crate::span!("inner", rank = 3);
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        set_profiling_enabled(false);
        let spans = drain_spans();
        assert_eq!(spans.len(), 2);
        // Drain sorts by start: outer starts first, inner second.
        assert_eq!(spans[0].name, "outer");
        assert_eq!(spans[0].depth, 0);
        assert_eq!(spans[1].name, "inner");
        assert_eq!(spans[1].depth, 1);
        assert_eq!(spans[1].args_str(), "rank=3");
        assert!(spans[0].args.is_none());
        assert!(spans[0].dur_ns >= spans[1].dur_ns);
        assert!(spans[1].dur_ns >= 1_000_000);
        assert_eq!(spans[0].tid, spans[1].tid);
    }

    #[test]
    fn epochs_isolate_drains() {
        let _g = locked();
        set_profiling_enabled(true);
        drain();
        {
            let _a = crate::span!("first-epoch");
        }
        assert_eq!(drain_spans().len(), 1);
        {
            let _b = crate::span!("second-epoch");
            let _c = crate::span!("second-epoch");
        }
        set_profiling_enabled(false);
        let spans = drain_spans();
        assert_eq!(spans.len(), 2);
        assert!(spans.iter().all(|s| s.name == "second-epoch"));
        assert!(drain_spans().is_empty());
    }

    #[test]
    fn ring_mode_keeps_newest_and_counts_dropped_exactly() {
        let _g = locked();
        set_profiling_enabled(true);
        drain();
        set_span_capacity(10);
        for i in 0..37 {
            let _s = crate::span!("ring", i = i);
        }
        set_span_capacity(0);
        set_profiling_enabled(false);
        let drained = drain();
        assert_eq!(drained.spans.len(), 10);
        assert_eq!(drained.dropped, 27);
        // The survivors are exactly the newest 10, in start order.
        let kept: Vec<&str> = drained.spans.iter().map(|s| s.args_str()).collect();
        let expect: Vec<String> = (27..37).map(|i| format!("i={i}")).collect();
        assert_eq!(kept, expect);
    }

    #[test]
    fn grows_past_one_chunk_without_loss() {
        let _g = locked();
        set_profiling_enabled(true);
        drain();
        let n = CHUNK * 2 + 100;
        for _ in 0..n {
            let _s = crate::span!("bulk");
        }
        set_profiling_enabled(false);
        let drained = drain();
        assert_eq!(drained.spans.len(), n);
        assert_eq!(drained.dropped, 0);
    }

    #[test]
    fn drain_is_sorted_across_threads() {
        let _g = locked();
        set_profiling_enabled(true);
        drain();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for i in 0..50 {
                        let _s = crate::span!("mt", i = i);
                    }
                });
            }
        });
        set_profiling_enabled(false);
        let spans = drain_spans();
        assert_eq!(spans.len(), 200);
        assert!(spans
            .windows(2)
            .all(|w| (w[0].start_ns, w[0].tid) <= (w[1].start_ns, w[1].tid)));
        // Four distinct recording threads.
        let tids: std::collections::BTreeSet<u32> = spans.iter().map(|s| s.tid).collect();
        assert_eq!(tids.len(), 4);
    }
}
