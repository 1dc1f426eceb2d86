//! Binary serialization of [`ProxyProgram`]s (`.siesta` files).
//!
//! A generated proxy-app is an artifact users ship around: generate once on
//! the traced system, replay or emit C anywhere. The format is a simple
//! little-endian tag-length-value encoding — no external format crates —
//! with a magic header and version byte for forward compatibility.

use siesta_grammar::{MainSym, MergedMain, RSym};
use siesta_perfmodel::CounterVec;
use siesta_proxy::{ComputeProxy, NUM_BLOCKS};
use siesta_trace::wire::{
    check_grammar, get_event, get_rankset, get_rsym, get_rules, put_event, put_rankset, put_rsym,
    put_rules, Reader, Writer, MIN_EVENT_BYTES, RSYM_BYTES,
};

use crate::ir::{ProxyProgram, TerminalOp};

/// Re-exported so `codegen::wire::WireError` keeps working.
pub use siesta_trace::wire::WireError;

const MAGIC: &[u8; 8] = b"SIESTA1\0";

// ---------------------------------------------------------------------
// Whole-program encode/decode
// ---------------------------------------------------------------------

/// Serialize a proxy program to bytes.
pub fn to_bytes(p: &ProxyProgram) -> Vec<u8> {
    let mut w = Writer::new();
    w.buf.extend_from_slice(MAGIC);
    w.u8(1); // version
    w.u32(p.nranks as u32);
    w.f64(p.scale);
    w.str(&p.generated_on);

    w.u32(p.terminals.len() as u32);
    for t in &p.terminals {
        match t {
            TerminalOp::Comm(e) => {
                w.u8(0);
                put_event(&mut w, e);
            }
            TerminalOp::Compute { proxy, target } => {
                w.u8(1);
                for rep in proxy.reps {
                    w.u64(rep);
                }
                for v in target.as_array() {
                    w.f64(v);
                }
            }
        }
    }

    put_rules(&mut w, &p.rules);

    w.u32(p.mains.len() as u32);
    for m in &p.mains {
        put_rankset(&mut w, &m.ranks);
        w.u32(m.body.len() as u32);
        for ms in &m.body {
            put_rsym(&mut w, RSym { sym: ms.sym, exp: ms.exp });
            put_rankset(&mut w, &ms.ranks);
        }
    }
    w.buf
}

/// Deserialize a proxy program.
pub fn from_bytes(bytes: &[u8]) -> Result<ProxyProgram, WireError> {
    let mut r = Reader::new(bytes);
    if r.take(8)? != MAGIC {
        return Err(WireError::BadMagic);
    }
    let version = r.u8()?;
    if version != 1 {
        return Err(WireError::UnsupportedVersion(version.into()));
    }
    let nranks = r.u32()? as usize;
    let scale = r.f64()?;
    let generated_on = r.str()?;

    // A terminal is at least a tag and an event.
    let n_terminals = r.count(1 + MIN_EVENT_BYTES)?;
    let mut terminals = Vec::with_capacity(n_terminals);
    for _ in 0..n_terminals {
        match r.u8()? {
            0 => terminals.push(TerminalOp::Comm(get_event(&mut r)?)),
            1 => {
                let mut reps = [0u64; NUM_BLOCKS];
                for rep in reps.iter_mut() {
                    *rep = r.u64()?;
                }
                let mut arr = [0.0f64; 6];
                for v in arr.iter_mut() {
                    *v = r.f64()?;
                }
                terminals.push(TerminalOp::Compute {
                    proxy: ComputeProxy { reps },
                    target: CounterVec::from_array(arr),
                });
            }
            t => return Err(WireError::BadTag(t)),
        }
    }

    let rules = get_rules(&mut r)?;

    // A main is at least an empty rank set and an empty body; a main
    // symbol at least a run-length symbol and an empty rank set.
    let n_mains = r.count(8)?;
    let mut mains = Vec::with_capacity(n_mains);
    for _ in 0..n_mains {
        let ranks = get_rankset(&mut r, nranks)?;
        let len = r.count(RSYM_BYTES + 4)?;
        let mut body = Vec::with_capacity(len);
        for _ in 0..len {
            let RSym { sym, exp } = get_rsym(&mut r)?;
            let sym_ranks = get_rankset(&mut r, nranks)?;
            body.push(MainSym { sym, exp, ranks: sym_ranks });
        }
        mains.push(MergedMain { ranks, body });
    }
    let main_syms = mains.iter().flat_map(|m| m.body.iter().map(|ms| ms.sym));
    check_grammar(&rules, main_syms, terminals.len())?;

    Ok(ProxyProgram { nranks, terminals, rules, mains, scale, generated_on })
}

/// Save to a file.
pub fn save(p: &ProxyProgram, path: &std::path::Path) -> std::io::Result<()> {
    std::fs::write(path, to_bytes(p))
}

/// Load from a file.
pub fn load(path: &std::path::Path) -> Result<ProxyProgram, Box<dyn std::error::Error>> {
    let bytes = std::fs::read(path)?;
    Ok(from_bytes(&bytes)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use siesta_grammar::{RankSet, Sym};
    use siesta_trace::CommEvent;

    fn toy() -> ProxyProgram {
        let mut proxy = ComputeProxy::IDLE;
        proxy.reps = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 55];
        ProxyProgram {
            nranks: 4,
            terminals: vec![
                TerminalOp::Comm(CommEvent::Send { rel: 1, tag: 7, bytes: 1024, comm: 0 }),
                TerminalOp::Compute {
                    proxy,
                    target: CounterVec::new(1.5, 2.5, 3.5, 4.5, 5.5, 6.5),
                },
                TerminalOp::Comm(CommEvent::Alltoallv {
                    comm: 0,
                    send_counts: vec![1, 2, 3, 4],
                    recv_counts: vec![4, 3, 2, 1],
                }),
                TerminalOp::Comm(CommEvent::CommSplit {
                    parent: 0,
                    color: -1,
                    key: 3,
                    result: None,
                }),
                TerminalOp::Comm(CommEvent::Waitall { reqs: vec![0, 1, 2] }),
            ],
            rules: vec![vec![RSym::new(Sym::T(1), 2), RSym::new(Sym::T(0), 1)]],
            mains: vec![MergedMain {
                ranks: RankSet::all(4),
                body: vec![
                    MainSym { sym: Sym::N(0), exp: 10, ranks: RankSet::all(4) },
                    MainSym { sym: Sym::T(2), exp: 1, ranks: RankSet::from_iter([0, 2]) },
                ],
            }],
            scale: 10.0,
            generated_on: "A/openmpi".into(),
        }
    }

    #[test]
    fn round_trip_preserves_everything() {
        let p = toy();
        let bytes = to_bytes(&p);
        let q = from_bytes(&bytes).expect("decode");
        assert_eq!(p, q);
    }

    #[test]
    fn rejects_garbage_and_truncation() {
        assert_eq!(from_bytes(b"not a siesta file"), Err(WireError::BadMagic));
        let bytes = to_bytes(&toy());
        for cut in [8usize, 9, 20, bytes.len() - 1] {
            assert!(
                from_bytes(&bytes[..cut]).is_err(),
                "truncation at {cut} accepted"
            );
        }
    }

    #[test]
    fn rejects_future_versions() {
        let mut bytes = to_bytes(&toy());
        bytes[8] = 9;
        assert_eq!(from_bytes(&bytes), Err(WireError::UnsupportedVersion(9)));
    }

    /// A two-rank program over one barrier whose single main runs `main`.
    fn two_ranks(rules: Vec<Vec<RSym>>, main: Sym) -> ProxyProgram {
        ProxyProgram {
            nranks: 2,
            terminals: vec![TerminalOp::Comm(CommEvent::Barrier { comm: 0 })],
            rules,
            mains: vec![MergedMain {
                ranks: RankSet::all(2),
                body: vec![MainSym { sym: main, exp: 1, ranks: RankSet::all(2) }],
            }],
            scale: 1.0,
            generated_on: "A/openmpi".into(),
        }
    }

    #[test]
    fn rejects_dangling_and_cyclic_references() {
        let self_loop = vec![vec![RSym::once(Sym::N(0))]];
        for (program, err) in [
            (two_ranks(vec![], Sym::T(7)), WireError::DanglingSymbol(Sym::T(7))),
            (two_ranks(vec![], Sym::N(3)), WireError::DanglingSymbol(Sym::N(3))),
            (two_ranks(self_loop, Sym::N(0)), WireError::CyclicRule(0)),
        ] {
            assert_eq!(from_bytes(&to_bytes(&program)), Err(err));
        }
        assert!(from_bytes(&to_bytes(&two_ranks(vec![], Sym::T(0)))).is_ok());
    }

    #[test]
    fn rejects_counts_and_rank_sets_the_file_cannot_hold() {
        // A terminal count of 0xFFFFFFF0 in a file of a few dozen bytes.
        let mut bytes = to_bytes(&two_ranks(vec![], Sym::T(0)));
        let at = MAGIC.len() + 1 + 4 + 8 + 4 + "A/openmpi".len();
        bytes[at..at + 4].copy_from_slice(&0xFFFF_FFF0u32.to_le_bytes());
        assert_eq!(from_bytes(&bytes), Err(WireError::Truncated));
        // A symbol's rank set that reaches past the job's two ranks.
        let mut bytes = to_bytes(&two_ranks(vec![], Sym::T(0)));
        let n = bytes.len();
        bytes[n - 4..].copy_from_slice(&2u32.to_le_bytes());
        assert_eq!(from_bytes(&bytes), Err(WireError::Invalid("malformed rank set")));
    }

    #[test]
    fn file_round_trip() {
        let p = toy();
        let dir = std::env::temp_dir();
        let path = dir.join("siesta_wire_test.siesta");
        save(&p, &path).unwrap();
        let q = load(&path).unwrap();
        assert_eq!(p, q);
        std::fs::remove_file(&path).ok();
    }
}
