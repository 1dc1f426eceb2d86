//! A deterministic **virtual-time MPI runtime**.
//!
//! The Siesta paper traces and replays real MPI programs on real clusters.
//! This crate is the reproduction's substitute for both the MPI library and
//! the cluster: MPI ranks run as *resumable state machines* on a
//! discrete-event scheduler, every MPI operation advances a per-rank
//! *virtual clock* through the LogGP-style cost models of
//! [`siesta_perfmodel`], and message matching follows real MPI semantics
//! (communicators, tags, non-overtaking order, eager/rendezvous protocols,
//! blocking and non-blocking operations). Collectives run the algorithms
//! real MPI libraries use, timed by the same wire model as point-to-point
//! messages: rooted ones as point-to-point rounds, and the all-member ones
//! (`barrier`, `allreduce`, `allgather`, `alltoall`,
//! `reduce_scatter_block`) as one pass over every member's state when the
//! last member arrives (see [`collectives`]).
//!
//! Why this preserves what the paper measures:
//!
//! * **Traces are structurally real.** A program written against [`Rank`]
//!   produces exactly the sequence of MPI calls, parameters, and matching
//!   behaviour a real PMPI interposer would observe — including request and
//!   communicator handles whose runtime values are arbitrary, which is what
//!   Siesta's free-number pools exist to normalize.
//! * **Times are comparable.** The virtual clock is a pure function of the
//!   program and the [`Machine`](siesta_perfmodel::Machine) (platform × MPI
//!   flavor); replaying a synthesized proxy under a *different* machine moves
//!   its execution time the same way the original moves — the property
//!   Figures 7–9 evaluate.
//! * **Everything is deterministic.** All completion times are functions of
//!   virtual timestamps, never of real scheduling order, so experiments
//!   reproduce bit-for-bit at any worker count (provided programs use
//!   fully-specified receive sources; `ANY_SOURCE`-style wildcards are
//!   intentionally unsupported).
//! * **Scale is decoupled from the host.** A rank costs one small heap
//!   future plus a mailbox, not an OS thread, so worlds of 10⁴–10⁶ virtual
//!   ranks simulate on a laptop; see `World::run`.
//!
//! # Interposition (the PMPI substitute)
//!
//! Install a [`PmpiHook`] on the [`World`]; the runtime calls it before and
//! after every *application-level* MPI call with the full call record
//! ([`MpiCall`]) and a context carrying the rank's virtual clock and
//! cumulative computation counters. Collective-internal rounds do not hit
//! the hook, exactly as PMPI sees `MPI_Bcast` once rather than its internal
//! sends. A hook with per-rank state hands each rank its own [`RankHook`]
//! through [`PmpiHook::for_rank`], which the rank calls without a lock.
//! [`World::observe`] asks for per-run collectors ([`CommMatrix`],
//! [`SimProfiler`]). Each rank records into them at every call's post,
//! after its hook, so observing leaves the hook's path alone, and the
//! run returns them in its [`RunStats`].
//!
//! # Example
//!
//! Rank bodies take the [`Rank`] by value, `.await` blocking MPI calls (each
//! is a continuation point for the scheduler), and return the rank:
//!
//! ```
//! use siesta_mpisim::World;
//! use siesta_perfmodel::{Machine, KernelDesc};
//!
//! let world = World::new(Machine::default_eval(), 4);
//! let stats = world.run(|mut rank| Box::pin(async move {
//!     // Each rank computes, then everyone exchanges a ring message.
//!     rank.compute(&KernelDesc::stencil(1000.0, 4.0, 65536.0));
//!     let right = (rank.rank() + 1) % rank.nranks();
//!     let left = (rank.rank() + rank.nranks() - 1) % rank.nranks();
//!     let world_comm = rank.comm_world();
//!     if rank.rank() % 2 == 0 {
//!         rank.send(&world_comm, right, 99, 1024).await;
//!         rank.recv(&world_comm, left, 99, 1024).await;
//!     } else {
//!         rank.recv(&world_comm, left, 99, 1024).await;
//!         rank.send(&world_comm, right, 99, 1024).await;
//!     }
//!     rank.barrier(&world_comm).await;
//!     rank
//! }));
//! assert_eq!(stats.per_rank.len(), 4);
//! assert!(stats.elapsed_ns() > 0.0);
//! ```

pub mod collectives;
pub mod comm;
pub mod comm_matrix;
pub mod critical;
pub mod engine;
pub mod exec;
pub mod hook;
mod link;
pub mod message;
mod obs;
pub mod profiler;
mod quorum;
pub mod rank;
pub mod request;
pub mod world;

pub use comm::{CommGroup, CommId, Communicator};
pub use comm_matrix::{CommMatrix, CommMatrixSnapshot};
pub use critical::{critical_path, CriticalPathReport, PathStep, RankBreakdown};
pub use hook::{HookCtx, MpiCall, PmpiHook, RankHook};
pub use message::{RecvStatus, Tag, ANY_TAG};
pub use profiler::{SimEvent, SimProfileSnapshot, SimProfiler};
pub use rank::Rank;
pub use request::Request;
pub use world::{Deadlock, Observe, RankFut, RankStats, RunStats, World};
