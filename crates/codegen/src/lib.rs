//! Proxy-app code generation and replay (paper Section 2.7).
//!
//! The output of the Siesta pipeline is a [`ProxyProgram`]: the merged
//! grammar over a table of replayable terminals. This crate turns it into
//! two equivalent artifacts:
//!
//! * [`emit_c`] — a self-contained C program (MPI calls + the Figure 2
//!   block macros + rank-list branch statements), the artifact the paper
//!   ships to users;
//! * [`replay()`](replay::replay) — direct execution of the same structure on the
//!   virtual-time MPI runtime, which is how this reproduction *measures*
//!   proxy-app performance (we have no real cluster to compile the C on —
//!   the interpreter and the emitter walk identical structures).

pub mod c_emit;
pub mod ir;
pub mod replay;
pub mod retarget;
pub mod wire;

pub use c_emit::emit_c;
pub use ir::{ProxyProgram, TerminalOp};
pub use replay::{exec_comm, predicted_compute_counters, replay, ReplayCtx};
pub use retarget::{retarget, RetargetError};
pub use wire::{from_bytes, to_bytes, WireError};
