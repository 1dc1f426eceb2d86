//! Trace recording for Siesta (paper Sections 2.2–2.3 and 2.6.1).
//!
//! The tracer is the PMPI side of the pipeline: a [`Recorder`] installed as
//! a [`siesta_mpisim::PmpiHook`] observes every application MPI call,
//! normalizes it (relative ranks, free-number pools for request and
//! communicator handles), measures the computation interval since the
//! previous call through the hardware-counter model, clusters similar
//! computation events, interns each distinct communication event once per
//! job and gives every rank a local table of ids into that list, and
//! streams each rank's id sequence into its Sequitur grammar.
//! [`merge_streamed`] then folds the per-rank tables into one global
//! terminal table with a ⌈log₂P⌉ binary reduction and relabels every
//! rank's grammar into global ids, producing the [`StreamedGlobal`] the
//! grammar stage consumes.

//! ```
//! use std::sync::Arc;
//! use siesta_mpisim::World;
//! use siesta_perfmodel::{Machine, KernelDesc};
//! use siesta_trace::{Recorder, TraceConfig, merge_streamed};
//!
//! let recorder = Arc::new(Recorder::new_streaming(4, TraceConfig::default()));
//! World::new(Machine::default_eval(), 4)
//!     .with_hook(recorder.clone())
//!     .run(|mut rank| Box::pin(async move {
//!         let comm = rank.comm_world();
//!         for _ in 0..3 {
//!             rank.compute(&KernelDesc::stencil(10_000.0, 4.0, 65536.0));
//!             rank.allreduce(&comm, 64).await;
//!         }
//!         rank
//!     }));
//! let global = merge_streamed(recorder.finish_streamed());
//! // Four ranks, identical behaviour: two global terminals
//! // (one compute cluster + the allreduce), 6 events per rank.
//! assert!(global.table.len() <= 3);
//! assert!((0..4).all(|rank| global.expand_rank(rank).len() == 6));
//! ```

pub mod event;
pub mod merge;
pub mod pool;
pub mod recorder;
pub mod serialize;
pub mod store;
pub mod text;
pub mod wire;

pub use event::{
    abs_rank, counters_close, rel_rank, CommEvent, ComputeStats, EventRecord, LocalEvent,
};
pub use merge::{
    merge_rank_tables, merge_streamed, merge_tables, GlobalTrace, MergedTables, StreamedGlobal,
};
pub use pool::{FreePool, HandleMap};
pub use store::{load_trace, store_from_bytes, store_to_bytes, write_store, StoreError};
pub use recorder::{
    resolve_stream_buf, Normalizer, Recorder, StreamedRank, StreamedTrace, TraceConfig,
    DEFAULT_STREAM_BUF, STREAM_BUF_MAX, STREAM_BUF_MIN,
};
