//! Scale retargeting — an implementation of the paper's future-work note.
//!
//! The paper's conclusion: "a manually developed proxy-app can accept
//! different input arguments and run with different parallel scales, while
//! Siesta can only reproduce program behaviors from a certain execution
//! path with fixed input and scale."
//!
//! This module lifts the *scale* restriction for the class of programs
//! where it is sound: fully SPMD proxies (one merged main rule, every
//! symbol executed by every rank) whose communication is **scale-free** —
//! partners are expressed as small relative offsets (ring/halo patterns
//! wrap at any size) and collectives carry per-rank volumes. Retargeting
//! such a proxy to a different rank count reproduces the program's *weak
//! scaling*: per-rank work and per-neighbor volumes stay fixed while the
//! job grows. Anything rank-count-specific (rank-dependent branches,
//! offsets beyond the new size, per-rank count vectors with unequal
//! entries, communicator splits) is rejected rather than silently wrong.

use siesta_grammar::RankSet;
use siesta_trace::CommEvent;

use crate::ir::{ProxyProgram, TerminalOp};

/// Why a proxy cannot be retargeted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RetargetError {
    /// More than one merged main: ranks behave differently.
    MultipleMains,
    /// A main-rule symbol is executed by a strict subset of ranks.
    RankDependentBranch,
    /// A point-to-point offset does not fit in the new world.
    OffsetOutOfRange { rel: u32, old: usize, new: usize },
    /// A per-rank count vector is not uniform, so its shape at another
    /// scale is unknowable.
    NonUniformCounts(&'static str),
    /// Communicator management encodes rank-count-specific grouping.
    CommManagement,
    /// The new size is not a valid world.
    BadSize(usize),
}

impl std::fmt::Display for RetargetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RetargetError::MultipleMains => {
                write!(f, "proxy has multiple rank classes (not fully SPMD)")
            }
            RetargetError::RankDependentBranch => {
                write!(f, "proxy branches on rank identity")
            }
            RetargetError::OffsetOutOfRange { rel, old, new } => write!(
                f,
                "relative offset {rel} (of {old} ranks) does not fit in {new} ranks"
            ),
            RetargetError::NonUniformCounts(op) => {
                write!(f, "{op} uses non-uniform per-rank counts")
            }
            RetargetError::CommManagement => {
                write!(f, "proxy manages communicators (rank-count-specific groups)")
            }
            RetargetError::BadSize(n) => write!(f, "cannot retarget to {n} ranks"),
        }
    }
}

impl std::error::Error for RetargetError {}

/// Interpret a stored relative rank as a signed offset (`+1` right
/// neighbor, `−1` left neighbor, ...), the form that is scale-free.
fn signed_offset(rel: u32, size: usize) -> i64 {
    let rel = rel as i64;
    let size = size as i64;
    if rel * 2 <= size {
        rel
    } else {
        rel - size
    }
}

fn reencode(off: i64, new_size: usize) -> u32 {
    let n = new_size as i64;
    (((off % n) + n) % n) as u32
}

/// Retarget `program` to `new_nranks`, or explain why that is unsound.
pub fn retarget(program: &ProxyProgram, new_nranks: usize) -> Result<ProxyProgram, RetargetError> {
    if new_nranks < 2 {
        return Err(RetargetError::BadSize(new_nranks));
    }
    let old = program.nranks;
    // Fully SPMD check.
    if program.mains.len() != 1 {
        return Err(RetargetError::MultipleMains);
    }
    let everyone = RankSet::all(old as u32);
    let main = &program.mains[0];
    if main.ranks != everyone {
        return Err(RetargetError::MultipleMains);
    }
    if main.body.iter().any(|ms| ms.ranks != everyone) {
        return Err(RetargetError::RankDependentBranch);
    }

    // Rewrite terminals.
    let map_rel = |rel: u32| -> Result<u32, RetargetError> {
        let off = signed_offset(rel, old);
        if off == 0 || off.unsigned_abs() as usize >= new_nranks {
            return Err(RetargetError::OffsetOutOfRange { rel, old, new: new_nranks });
        }
        Ok(reencode(off, new_nranks))
    };
    let uniform = |counts: &[u64], op: &'static str| -> Result<Vec<u64>, RetargetError> {
        match counts.first() {
            None => Ok(vec![]),
            Some(&v) if counts.iter().all(|&c| c == v) => Ok(vec![v; new_nranks]),
            _ => Err(RetargetError::NonUniformCounts(op)),
        }
    };
    let mut terminals = Vec::with_capacity(program.terminals.len());
    for t in &program.terminals {
        let mut t = t.clone();
        if let TerminalOp::Comm(e) = &mut t {
            match e {
                CommEvent::CommSplit { .. }
                | CommEvent::CommDup { .. }
                | CommEvent::CommFree { .. } => return Err(RetargetError::CommManagement),
                // Size-independent collectives pass through. Roots must
                // exist in the smaller world.
                CommEvent::Bcast { root, .. }
                | CommEvent::Reduce { root, .. }
                | CommEvent::Gather { root, .. }
                | CommEvent::Scatter { root, .. }
                | CommEvent::Gatherv { root, .. }
                | CommEvent::Scatterv { root, .. }
                    if *root as usize >= new_nranks =>
                {
                    return Err(RetargetError::BadSize(new_nranks));
                }
                _ => {}
            }
            for rel in e.peers_mut() {
                *rel = map_rel(*rel)?;
            }
            let op = e.func_name();
            for counts in e.counts_mut() {
                *counts = uniform(counts, op)?;
            }
        }
        terminals.push(t);
    }

    // Rules are over terminals only — unchanged. The main rule gets the
    // new full-world rank set on every symbol.
    let new_everyone = RankSet::all(new_nranks as u32);
    let body = main
        .body
        .iter()
        .map(|ms| siesta_grammar::MainSym {
            sym: ms.sym,
            exp: ms.exp,
            ranks: new_everyone.clone(),
        })
        .collect();

    Ok(ProxyProgram {
        nranks: new_nranks,
        terminals,
        rules: program.rules.clone(),
        mains: vec![siesta_grammar::MergedMain { ranks: new_everyone, body }],
        scale: program.scale,
        generated_on: format!("{} (retargeted {}→{} ranks)", program.generated_on, old, new_nranks),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use siesta_grammar::{MainSym, MergedMain, RSym, Sym};
    use siesta_perfmodel::CounterVec;
    use siesta_proxy::ComputeProxy;

    fn spmd_ring(nranks: usize) -> ProxyProgram {
        let everyone = RankSet::all(nranks as u32);
        ProxyProgram {
            nranks,
            terminals: vec![
                TerminalOp::Comm(CommEvent::Sendrecv {
                    dest_rel: 1,
                    send_tag: 0,
                    send_bytes: 4096,
                    src_rel: (nranks - 1) as u32, // −1: left neighbor
                    recv_tag: 0,
                    recv_bytes: 4096,
                    comm: 0,
                }),
                TerminalOp::Compute {
                    proxy: ComputeProxy::IDLE,
                    target: CounterVec::ZERO,
                },
                TerminalOp::Comm(CommEvent::Allreduce { comm: 0, bytes: 8 }),
            ],
            rules: vec![vec![
                RSym::new(Sym::T(0), 1),
                RSym::new(Sym::T(1), 1),
                RSym::new(Sym::T(2), 1),
            ]],
            mains: vec![MergedMain {
                ranks: everyone.clone(),
                body: vec![MainSym { sym: Sym::N(0), exp: 20, ranks: everyone }],
            }],
            scale: 1.0,
            generated_on: "A/openmpi".into(),
        }
    }

    #[test]
    fn ring_proxy_retargets_and_offsets_reencode() {
        let p8 = spmd_ring(8);
        let p16 = retarget(&p8, 16).expect("retargetable");
        assert_eq!(p16.nranks, 16);
        match &p16.terminals[0] {
            TerminalOp::Comm(CommEvent::Sendrecv { dest_rel, src_rel, .. }) => {
                assert_eq!(*dest_rel, 1);
                assert_eq!(*src_rel, 15); // −1 mod 16
            }
            other => panic!("unexpected {other:?}"),
        }
        // Shrinking works too.
        let p4 = retarget(&p8, 4).expect("shrinkable");
        match &p4.terminals[0] {
            TerminalOp::Comm(CommEvent::Sendrecv { src_rel, .. }) => assert_eq!(*src_rel, 3),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn rank_dependent_branches_are_rejected() {
        let mut p = spmd_ring(8);
        p.mains[0].body[0].ranks = RankSet::from_iter(0..4);
        assert_eq!(retarget(&p, 16), Err(RetargetError::RankDependentBranch));
    }

    #[test]
    fn oversized_offsets_are_rejected() {
        let mut p = spmd_ring(8);
        if let TerminalOp::Comm(CommEvent::Sendrecv { dest_rel, .. }) = &mut p.terminals[0] {
            *dest_rel = 3; // offset +3 does not fit in a 3-rank world
        }
        assert!(matches!(
            retarget(&p, 3),
            Err(RetargetError::OffsetOutOfRange { .. })
        ));
        assert!(retarget(&p, 16).is_ok());
        // With both offsets out of range, the destination is reported.
        if let TerminalOp::Comm(CommEvent::Sendrecv { src_rel, .. }) = &mut p.terminals[0] {
            *src_rel = 5; // −3
        }
        assert_eq!(
            retarget(&p, 3),
            Err(RetargetError::OffsetOutOfRange { rel: 3, old: 8, new: 3 })
        );
    }

    #[test]
    fn comm_management_is_rejected() {
        let mut p = spmd_ring(8);
        p.terminals.push(TerminalOp::Comm(CommEvent::CommDup { parent: 0, result: 1 }));
        assert_eq!(retarget(&p, 16), Err(RetargetError::CommManagement));
    }

    #[test]
    fn nonuniform_counts_are_rejected_uniform_resized() {
        let mut p = spmd_ring(8);
        p.terminals.push(TerminalOp::Comm(CommEvent::Alltoallv {
            comm: 0,
            send_counts: vec![64; 8],
            recv_counts: vec![64; 8],
        }));
        let p16 = retarget(&p, 16).expect("uniform counts resize");
        match &p16.terminals[3] {
            TerminalOp::Comm(CommEvent::Alltoallv { send_counts, .. }) => {
                assert_eq!(send_counts, &vec![64u64; 16]);
            }
            other => panic!("unexpected {other:?}"),
        }
        if let TerminalOp::Comm(CommEvent::Alltoallv { send_counts, .. }) =
            &mut p.terminals[3]
        {
            send_counts[2] = 128;
        }
        assert_eq!(
            retarget(&p, 16),
            Err(RetargetError::NonUniformCounts("MPI_Alltoallv"))
        );
    }

    #[test]
    fn roots_outside_the_new_world_are_rejected() {
        // One terminal, executed by every rank: a rooted collective whose
        // root does not exist after shrinking 16 → 8.
        let rooted = |event: CommEvent| {
            let everyone = RankSet::all(16);
            ProxyProgram {
                nranks: 16,
                terminals: vec![TerminalOp::Comm(event)],
                rules: vec![],
                mains: vec![MergedMain {
                    ranks: everyone.clone(),
                    body: vec![MainSym { sym: Sym::T(0), exp: 1, ranks: everyone }],
                }],
                scale: 1.0,
                generated_on: "A/openmpi".into(),
            }
        };
        let events = [
            CommEvent::Bcast { comm: 0, root: 12, bytes: 64 },
            CommEvent::Reduce { comm: 0, root: 12, bytes: 64 },
            CommEvent::Gather { comm: 0, root: 12, bytes: 64 },
            CommEvent::Scatter { comm: 0, root: 12, bytes: 64 },
            CommEvent::Gatherv { comm: 0, root: 12, counts: vec![64; 16] },
            CommEvent::Scatterv { comm: 0, root: 12, counts: vec![64; 16] },
        ];
        for event in events {
            let p = rooted(event.clone());
            assert_eq!(retarget(&p, 8), Err(RetargetError::BadSize(8)), "{event:?}");
            // The root exists in a world of 13, so the proxy retargets.
            assert!(retarget(&p, 13).is_ok(), "{event:?}");
        }
    }

    #[test]
    fn retargeted_proxy_replays_at_the_new_scale() {
        use crate::replay::replay;
        use siesta_perfmodel::Machine;
        let p8 = spmd_ring(8);
        let m = Machine::default_eval();
        let p16 = retarget(&p8, 16).unwrap();
        let s16 = replay(&p16, m);
        assert_eq!(s16.per_rank.len(), 16);
        assert!(s16.elapsed_ns() > 0.0);
        // Everyone executes the same 20 iterations (SPMD preserved).
        let c0 = s16.per_rank[0].app_calls;
        assert!(s16.per_rank.iter().all(|r| r.app_calls == c0));
    }
}
