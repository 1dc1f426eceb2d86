//! Property tests for the event scheduler: random MPI programs, on the
//! seeded `siesta-prop` harness.
//!
//! The generator builds *globally ordered* programs: a list of rounds, each
//! either a matched point-to-point transfer, a collective over the world
//! communicator, a barrier, or a comm_split phase (split → subcomm
//! allreduce → free). Every rank walks the same list, playing only its own
//! part of each round, so the program is deadlock-free by construction —
//! which is exactly the property the scheduler must preserve. Sabotaging
//! one receive's tag breaks the matching and must be *diagnosed* as a
//! deadlock (`try_run` → `Err`), never hang or panic.

use std::sync::Arc;

use siesta_mpisim::{critical_path, PmpiHook, Rank, RankFut, SimProfiler, World};
use siesta_perfmodel::{platform_b, Machine, MpiFlavor};
use siesta_prop::{check, Gen};

/// A tag the generator never produces: poisoning a receive with it
/// guarantees the receive can never match.
const POISON_TAG: i32 = 9_999;

fn machine() -> Machine {
    Machine::new(platform_b(), MpiFlavor::OpenMpi)
}

#[derive(Debug, Clone, Copy)]
enum Round {
    /// One matched transfer `from → to` (`from != to`); both sides
    /// blocking, or both non-blocking with an immediate wait.
    P2p { from: usize, to: usize, tag: i32, bytes: usize, nonblocking: bool },
    /// A collective over the world communicator.
    Coll { kind: CollKind, root: usize, bytes: usize },
    Barrier,
    /// `comm_split(color = rank % modulus)` → allreduce in the subcomm →
    /// free. Exercises matching on freshly derived communicators.
    Split { modulus: usize, bytes: usize },
}

#[derive(Debug, Clone, Copy)]
enum CollKind {
    Bcast,
    Reduce,
    Allreduce,
    Allgather,
    Alltoall,
    Scan,
}

fn round(g: &mut Gen, nranks: usize) -> Round {
    match g.weighted(&[4, 3, 1, 1]) {
        0 => {
            let (from, offset) = (g.draw(0..nranks), g.draw(0..nranks - 1));
            let (tag, bytes, nonblocking) = (g.draw(0..8i32), g.draw(1usize..32_768), g.bool());
            // `to` is drawn from the other ranks by offset, never self.
            let to = (from + 1 + offset) % nranks;
            Round::P2p { from, to, tag, bytes, nonblocking }
        }
        1 => {
            let kind = [
                CollKind::Bcast,
                CollKind::Reduce,
                CollKind::Allreduce,
                CollKind::Allgather,
                CollKind::Alltoall,
                CollKind::Scan,
            ][g.draw(0..6usize)];
            Round::Coll { kind, root: g.draw(0..nranks), bytes: g.draw(1usize..16_384) }
        }
        2 => Round::Barrier,
        _ => Round::Split { modulus: g.draw(2..5usize), bytes: g.draw(1usize..4_096) },
    }
}

fn program(g: &mut Gen) -> (usize, Vec<Round>) {
    let nranks = g.draw(2usize..=8);
    (nranks, g.vec(1..24, |g| round(g, nranks)))
}

/// Play one rank's part of the script. `sabotage` poisons the *receive*
/// tag of the round at that index (which must be a `P2p`).
async fn run_rounds(rank: &mut Rank, rounds: &[Round], sabotage: Option<usize>) {
    let comm = rank.comm_world();
    let me = rank.rank();
    for (i, round) in rounds.iter().enumerate() {
        match *round {
            Round::P2p { from, to, tag, bytes, nonblocking } => {
                let recv_tag = if sabotage == Some(i) { POISON_TAG } else { tag };
                if me == from {
                    if nonblocking {
                        let r = rank.isend(&comm, to, tag, bytes);
                        rank.wait(r).await;
                    } else {
                        rank.send(&comm, to, tag, bytes).await;
                    }
                } else if me == to {
                    if nonblocking {
                        let r = rank.irecv(&comm, from, recv_tag, bytes);
                        rank.wait(r).await;
                    } else {
                        rank.recv(&comm, from, recv_tag, bytes).await;
                    }
                }
            }
            Round::Coll { kind, root, bytes } => match kind {
                CollKind::Bcast => rank.bcast(&comm, root, bytes).await,
                CollKind::Reduce => rank.reduce(&comm, root, bytes).await,
                CollKind::Allreduce => rank.allreduce(&comm, bytes).await,
                CollKind::Allgather => rank.allgather(&comm, bytes).await,
                CollKind::Alltoall => rank.alltoall(&comm, bytes).await,
                CollKind::Scan => rank.scan(&comm, bytes).await,
            },
            Round::Barrier => rank.barrier(&comm).await,
            Round::Split { modulus, bytes } => {
                let sub = rank
                    .comm_split(&comm, (me % modulus) as i64, me as i64)
                    .await
                    .expect("non-negative color always yields a communicator");
                rank.allreduce(&sub, bytes).await;
                rank.comm_free(sub);
            }
        }
    }
}

fn body(
    rounds: Arc<Vec<Round>>,
    sabotage: Option<usize>,
) -> impl Fn(Rank) -> RankFut<'static> + Send + Sync {
    move |mut rank: Rank| -> RankFut<'static> {
        let rounds = rounds.clone();
        Box::pin(async move {
            run_rounds(&mut rank, &rounds, sabotage).await;
            rank
        })
    }
}

/// Matched programs never deadlock: every round is either collective
/// (all ranks participate) or a paired send/recv, so the scheduler must
/// always drive the world to completion.
#[test]
fn matched_programs_complete() {
    check("matched_programs_complete", 256, |g| {
        let (nranks, rounds) = program(g);
        let rounds = Arc::new(rounds);
        let stats = World::new(machine(), nranks)
            .try_run(body(rounds.clone(), None))
            .expect("matched program reported deadlock");
        assert_eq!(stats.per_rank.len(), nranks);
        // Virtual time moved unless the program was a pure no-op for
        // every rank (cannot happen: every round touches all or two ranks
        // and rounds is non-empty — except a P2p in a 2-rank world still
        // involves both, so some rank always advances).
        assert!(stats.elapsed_ns() > 0.0);
    });
}

/// Breaking one receive's tag must be *diagnosed*: `try_run` returns the
/// deadlock report (with the stuck ranks) instead of hanging.
#[test]
fn mismatched_programs_are_diagnosed() {
    check("mismatched_programs_are_diagnosed", 256, |g| {
        let (nranks, rounds) = program(g);
        let p2ps: Vec<usize> = rounds
            .iter()
            .enumerate()
            .filter(|(_, r)| matches!(r, Round::P2p { .. }))
            .map(|(i, _)| i)
            .collect();
        if p2ps.is_empty() {
            return;
        }
        let sabotage = p2ps[g.draw(0..p2ps.len())];
        let rounds = Arc::new(rounds);
        let err = World::new(machine(), nranks)
            .try_run(body(rounds.clone(), Some(sabotage)))
            .expect_err("poisoned receive cannot complete, deadlock must be reported");
        assert_eq!(err.nranks, nranks);
        assert!(!err.ranks.is_empty(), "deadlock report names no ranks");
        assert!(err.ranks.len() <= nranks);
    });
}

/// Non-overtaking: two sends on the same (source, dest, comm, tag) arrive
/// in program order, so a receiver draining K same-tag messages sees the
/// sender's byte sizes in the exact order sent.
#[test]
fn p2p_messages_do_not_overtake() {
    check("p2p_messages_do_not_overtake", 256, |g| {
        let sizes = Arc::new(g.vec(1..16, |g| g.draw(1usize..16_384)));
        let tag = g.draw(0..4i32);
        let nonblocking: Arc<[bool; 16]> = Arc::new(std::array::from_fn(|_| g.bool()));
        let stats = World::new(machine(), 2).run(move |mut rank: Rank| -> RankFut<'static> {
            let sizes = sizes.clone();
            let nonblocking = nonblocking.clone();
            Box::pin(async move {
                let comm = rank.comm_world();
                if rank.rank() == 0 {
                    for (i, &bytes) in sizes.iter().enumerate() {
                        if nonblocking[i] {
                            let r = rank.isend(&comm, 1, tag, bytes);
                            rank.wait(r).await;
                        } else {
                            rank.send(&comm, 1, tag, bytes).await;
                        }
                    }
                } else {
                    let mut got = Vec::new();
                    for i in 0..sizes.len() {
                        // Receive buffer is deliberately the max size: the
                        // status must report the *message* size, and order
                        // must come from posting order alone. The receive
                        // mode is drawn independently of the send mode.
                        let status = if nonblocking[sizes.len() - 1 - i] {
                            let r = rank.irecv(&comm, 0, tag, 16_384);
                            rank.wait(r).await
                        } else {
                            rank.recv(&comm, 0, tag, 16_384).await
                        };
                        got.push(status.bytes);
                    }
                    assert_eq!(
                        got.as_slice(),
                        sizes.as_slice(),
                        "same-tag messages overtook each other"
                    );
                }
                rank
            })
        });
        assert_eq!(stats.per_rank.len(), 2);
    });
}

/// The critical path is a *chain* through the run: its span can never
/// exceed the run's total virtual time, and with every message matched
/// in-world (this generator has no `Sendrecv`, whose merged intervals can
/// legitimately truncate the walk) it terminates without truncation.
/// Blocked wait along the path is *not* bounded by the span — relay
/// chains block concurrently, so per-node waits overlap by design.
#[test]
fn critical_path_span_is_bounded() {
    check("critical_path_span_is_bounded", 256, |g| {
        let (nranks, rounds) = program(g);
        let rounds = Arc::new(rounds);
        let prof = SimProfiler::new(nranks, 0);
        let hook: Arc<dyn PmpiHook> = prof.clone();
        let stats = World::new(machine(), nranks)
            .with_hook(hook)
            .try_run(body(rounds.clone(), None))
            .expect("matched program reported deadlock");
        let report = critical_path(&prof.snapshot());
        assert!(!report.truncated, "happens-before walk revisited a node");
        assert!(
            report.span_ns <= stats.elapsed_ns() + 1e-6,
            "critical path span {} exceeds elapsed {}",
            report.span_ns,
            stats.elapsed_ns()
        );
        assert!(report.span_ns >= 0.0);
        assert!(report.ranks_visited >= 1);
    });
}

/// The profiler's artifacts are pure functions of the simulated program:
/// the rendered critical-path report is byte-identical at any scheduler
/// pool width.
#[test]
fn critical_path_report_is_width_invariant() {
    check("critical_path_report_is_width_invariant", 256, |g| {
        let (nranks, rounds) = program(g);
        let rounds = Arc::new(rounds);
        let report_at = |width: usize| {
            siesta_par::with_threads(width, || {
                let prof = SimProfiler::new(nranks, 0);
                let hook: Arc<dyn PmpiHook> = prof.clone();
                World::new(machine(), nranks).with_hook(hook).run(body(rounds.clone(), None));
                critical_path(&prof.snapshot()).render()
            })
        };
        let baseline = report_at(1);
        for width in [2usize, 4] {
            assert_eq!(
                &baseline,
                &report_at(width),
                "critical-path report diverges at {width} threads"
            );
        }
    });
}

/// Run-to-run determinism: the event-schedule hash (per-call virtual
/// completion clocks folded per rank) is identical across repeated runs
/// and across scheduler pool widths.
#[test]
fn schedule_hash_is_deterministic() {
    check("schedule_hash_is_deterministic", 256, |g| {
        let (nranks, rounds) = program(g);
        let rounds = Arc::new(rounds);
        let run_at = |width: usize| {
            siesta_par::with_threads(width, || {
                World::new(machine(), nranks).run(body(rounds.clone(), None))
            })
        };
        let baseline = run_at(1);
        let again = run_at(1);
        assert_eq!(baseline.schedule_hash(), again.schedule_hash());
        assert_eq!(baseline.elapsed_ns().to_bits(), again.elapsed_ns().to_bits());
        for width in [2usize, 4] {
            let wide = run_at(width);
            assert_eq!(
                baseline.schedule_hash(),
                wide.schedule_hash(),
                "schedule hash diverges at {width} threads"
            );
            assert_eq!(
                baseline.elapsed_ns().to_bits(),
                wide.elapsed_ns().to_bits(),
                "virtual time diverges at {width} threads"
            );
        }
    });
}
