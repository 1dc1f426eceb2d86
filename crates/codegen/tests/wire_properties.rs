//! Property tests for the `.siesta` wire format over randomized proxy
//! programs, on the seeded `siesta-prop` harness.

use siesta_codegen::{emit_c, from_bytes, to_bytes, ProxyProgram, TerminalOp};
use siesta_grammar::{MainSym, MergedMain, RSym, RankSet, Sym};
use siesta_perfmodel::CounterVec;
use siesta_prop::{check, Gen};
use siesta_proxy::ComputeProxy;
use siesta_trace::CommEvent;

fn arb_event(g: &mut Gen) -> CommEvent {
    match g.draw(0u32..17) {
        0 => CommEvent::Send {
            rel: g.draw(0u32..64),
            tag: g.draw(-1i32..100),
            bytes: g.draw(0u64..1_000_000),
            comm: g.draw(0u32..4),
        },
        1 => CommEvent::Recv {
            rel: g.draw(0u32..64),
            tag: g.draw(-1i32..100),
            bytes: g.draw(0u64..1_000_000),
            comm: g.draw(0u32..4),
        },
        2 => CommEvent::Isend {
            rel: g.draw(0u32..64),
            tag: g.draw(0i32..100),
            bytes: g.draw(0u64..1_000_000),
            comm: g.draw(0u32..4),
            req: g.draw(0u32..16),
        },
        3 => CommEvent::Irecv {
            rel: g.draw(0u32..64),
            tag: g.draw(0i32..100),
            bytes: g.draw(0u64..1_000_000),
            comm: g.draw(0u32..4),
            req: g.draw(0u32..16),
        },
        4 => CommEvent::Wait { req: g.draw(0u32..16) },
        5 => CommEvent::Waitall { reqs: g.vec(0..8, |g| g.draw(0u32..16)) },
        6 => CommEvent::Barrier { comm: g.draw(0u32..4) },
        7 => CommEvent::Bcast {
            comm: g.draw(0u32..4),
            root: g.draw(0u32..64),
            bytes: g.draw(0u64..1_000_000),
        },
        8 => CommEvent::Allreduce { comm: g.draw(0u32..4), bytes: g.draw(0u64..1_000_000) },
        9 => CommEvent::Alltoallv {
            comm: g.draw(0u32..4),
            send_counts: g.vec(1..16, |g| g.draw(0u64..10_000)),
            recv_counts: g.vec(1..16, |g| g.draw(0u64..10_000)),
        },
        10 => CommEvent::CommSplit {
            parent: g.draw(0u32..4),
            color: g.draw(-5i64..5),
            key: g.draw(-5i64..5),
            result: g.option(|g| g.draw(1u32..4)),
        },
        11 => CommEvent::CommDup { parent: g.draw(0u32..4), result: g.draw(1u32..4) },
        12 => CommEvent::CommFree { comm: g.draw(1u32..4) },
        13 => CommEvent::Gatherv {
            comm: g.draw(0u32..4),
            root: g.draw(0u32..32),
            counts: g.vec(1..16, |g| g.draw(0u64..10_000)),
        },
        14 => CommEvent::Scatterv {
            comm: g.draw(0u32..4),
            root: g.draw(0u32..32),
            counts: g.vec(1..16, |g| g.draw(0u64..10_000)),
        },
        15 => CommEvent::Scan { comm: g.draw(0u32..4), bytes: g.draw(0u64..1_000_000) },
        _ => CommEvent::ReduceScatterBlock {
            comm: g.draw(0u32..4),
            bytes_per_rank: g.draw(0u64..100_000),
        },
    }
}

fn arb_terminal(g: &mut Gen) -> TerminalOp {
    if g.bool() {
        return TerminalOp::Comm(arb_event(g));
    }
    TerminalOp::Compute {
        proxy: ComputeProxy { reps: std::array::from_fn(|_| g.draw(0u64..100_000)) },
        target: CounterVec::from_array(std::array::from_fn(|_| g.draw(0.0..1e9))),
    }
}

fn arb_rankset(g: &mut Gen, nranks: u32) -> RankSet {
    RankSet::from_iter(g.set(1..(nranks as usize).min(12), |g| g.draw(0..nranks)))
}

fn arb_program(g: &mut Gen) -> ProxyProgram {
    let nranks = g.draw(2u32..32);
    let terminals = g.vec(1..12, arb_terminal);
    let scale = g.draw(1.0..20.0);
    let n_terms = terminals.len() as u32;
    // One rule over terminals only (keeps acyclicity trivial), and a main
    // over rules + terminals.
    let rule = g.vec(1..6, |g| RSym::new(Sym::T(g.draw(0..n_terms)), g.draw(1u64..50)));
    let main = g.vec(1..10, |g| {
        let sym = if g.bool() { Sym::T(g.draw(0..n_terms)) } else { Sym::N(0) };
        MainSym { sym, exp: g.draw(1u64..20), ranks: arb_rankset(g, nranks) }
    });
    ProxyProgram {
        nranks: nranks as usize,
        terminals,
        rules: vec![rule],
        mains: vec![MergedMain { ranks: RankSet::all(nranks), body: main }],
        scale,
        generated_on: "A/openmpi".to_string(),
    }
}

/// Encode → decode is the identity on arbitrary programs.
#[test]
fn wire_round_trip() {
    check("wire_round_trip", 256, |g| {
        let p = arb_program(g);
        let q = from_bytes(&to_bytes(&p)).expect("decode");
        assert_eq!(p, q);
    });
}

/// Truncating anywhere never panics and never yields Ok of a different
/// program (prefix-freeness of the format).
#[test]
fn truncation_is_detected() {
    check("truncation_is_detected", 256, |g| {
        let (p, frac) = (arb_program(g), g.draw(0.0..1.0));
        let bytes = to_bytes(&p);
        let cut = ((bytes.len() as f64) * frac) as usize;
        if cut < bytes.len() {
            match from_bytes(&bytes[..cut]) {
                Err(_) => {}
                Ok(q) => assert_eq!(p, q), // only acceptable if identical
            }
        }
    });
}

/// Flipping any one bit never panics the decoder, nor `emit_c` on
/// whatever still decodes. The format has no checksum, so a flip may
/// decode as another program; none is replayed here, since a flipped
/// high bit of a `u64` exponent can ask for 2⁴⁰ repetitions and more.
#[test]
fn bit_flip_never_panics() {
    check("bit_flip_never_panics", 256, |g| {
        let mut bytes = to_bytes(&arb_program(g));
        let pos = g.draw(0..bytes.len());
        bytes[pos] ^= 1u8 << g.draw(0u32..8);
        if let Ok(q) = from_bytes(&bytes) {
            emit_c(&q);
        }
    });
}

/// Emission works on every decodable program (no panics, balanced
/// braces) — the two consumers of the IR agree on validity.
#[test]
fn emit_c_total_on_arbitrary_programs() {
    check("emit_c_total_on_arbitrary_programs", 256, |g| {
        let c = emit_c(&arb_program(g));
        assert_eq!(c.matches('{').count(), c.matches('}').count());
        assert!(c.contains("int main"));
    });
}
