//! Little-endian byte primitives and the event and grammar codecs that
//! Siesta's binary formats share: the trace store ([`crate::store`],
//! `.siestatrace`) and the proxy-app codec of `siesta-codegen`
//! (`.siesta`).
//!
//! Decoders never trust a count or a symbol: [`Reader::count`] refuses a
//! count the remaining bytes cannot hold before anything is allocated,
//! [`get_rankset`] keeps rank sets as ranges below the rank count, and
//! [`check_grammar`] refuses dangling and cyclic symbol references, so a
//! decoded grammar is safe to expand.

use siesta_grammar::{RSym, RankSet, Sym};
use siesta_perfmodel::CounterVec;

use crate::event::CommEvent;

/// Decoding failure (shared by every Siesta wire format).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    BadMagic,
    UnsupportedVersion(u32),
    Truncated,
    BadTag(u8),
    BadString,
    /// A symbol names a terminal or rule that does not exist.
    DanglingSymbol(Sym),
    /// A rule derives itself.
    CyclicRule(u32),
    /// A field outside its valid range (a zero exponent, a malformed rank
    /// set, ...).
    Invalid(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::BadMagic => write!(f, "bad magic (wrong file type)"),
            WireError::UnsupportedVersion(v) => write!(f, "unsupported format version {v}"),
            WireError::Truncated => write!(f, "file truncated"),
            WireError::BadTag(t) => write!(f, "corrupt file (unknown tag {t})"),
            WireError::BadString => write!(f, "corrupt file (invalid UTF-8)"),
            WireError::DanglingSymbol(s) => write!(f, "corrupt file ({s} names nothing)"),
            WireError::CyclicRule(n) => write!(f, "corrupt file (rule R{n} derives itself)"),
            WireError::Invalid(why) => write!(f, "corrupt file ({why})"),
        }
    }
}

impl std::error::Error for WireError {}

/// Little-endian byte writer.
#[derive(Default)]
pub struct Writer {
    pub buf: Vec<u8>,
}

impl Writer {
    pub fn new() -> Writer {
        Writer { buf: Vec::with_capacity(4096) }
    }
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    pub fn i32(&mut self, v: i32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    pub fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    pub fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }
    pub fn u64s(&mut self, v: &[u64]) {
        self.u32(v.len() as u32);
        for &x in v {
            self.u64(x);
        }
    }
    pub fn u32s(&mut self, v: &[u32]) {
        self.u32(v.len() as u32);
        for &x in v {
            self.u32(x);
        }
    }
    pub fn counters(&mut self, c: &CounterVec) {
        for v in c.as_array() {
            self.f64(v);
        }
    }
}

/// Little-endian byte reader.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }
    /// Bytes not yet read.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if n > self.remaining() {
            return Err(WireError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }
    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    pub fn i32(&mut self) -> Result<i32, WireError> {
        Ok(i32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    pub fn i64(&mut self) -> Result<i64, WireError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    pub fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    /// Read a `u32` item count, refusing one the remaining bytes cannot
    /// hold at `min_item_bytes` per item. Every decoder reads its counts
    /// here, so no allocation is ever sized from an untrusted count.
    pub fn count(&mut self, min_item_bytes: usize) -> Result<usize, WireError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_item_bytes) > self.remaining() {
            return Err(WireError::Truncated);
        }
        Ok(n)
    }
    pub fn str(&mut self) -> Result<String, WireError> {
        let n = self.count(1)?;
        String::from_utf8(self.take(n)?.to_vec()).map_err(|_| WireError::BadString)
    }
    pub fn u64s(&mut self) -> Result<Vec<u64>, WireError> {
        let n = self.count(8)?;
        (0..n).map(|_| self.u64()).collect()
    }
    pub fn u32s(&mut self) -> Result<Vec<u32>, WireError> {
        let n = self.count(4)?;
        (0..n).map(|_| self.u32()).collect()
    }
    pub fn counters(&mut self) -> Result<CounterVec, WireError> {
        let mut a = [0.0f64; 6];
        for v in a.iter_mut() {
            *v = self.f64()?;
        }
        Ok(CounterVec::from_array(a))
    }
}

/// Encode one normalized communication event.
pub fn put_event(w: &mut Writer, e: &CommEvent) {
    match e {
        CommEvent::Send { rel, tag, bytes, comm } => {
            w.u8(0);
            w.u32(*rel);
            w.i32(*tag);
            w.u64(*bytes);
            w.u32(*comm);
        }
        CommEvent::Recv { rel, tag, bytes, comm } => {
            w.u8(1);
            w.u32(*rel);
            w.i32(*tag);
            w.u64(*bytes);
            w.u32(*comm);
        }
        CommEvent::Isend { rel, tag, bytes, comm, req } => {
            w.u8(2);
            w.u32(*rel);
            w.i32(*tag);
            w.u64(*bytes);
            w.u32(*comm);
            w.u32(*req);
        }
        CommEvent::Irecv { rel, tag, bytes, comm, req } => {
            w.u8(3);
            w.u32(*rel);
            w.i32(*tag);
            w.u64(*bytes);
            w.u32(*comm);
            w.u32(*req);
        }
        CommEvent::Wait { req } => {
            w.u8(4);
            w.u32(*req);
        }
        CommEvent::Waitall { reqs } => {
            w.u8(5);
            w.u32s(reqs);
        }
        CommEvent::Sendrecv {
            dest_rel,
            send_tag,
            send_bytes,
            src_rel,
            recv_tag,
            recv_bytes,
            comm,
        } => {
            w.u8(6);
            w.u32(*dest_rel);
            w.i32(*send_tag);
            w.u64(*send_bytes);
            w.u32(*src_rel);
            w.i32(*recv_tag);
            w.u64(*recv_bytes);
            w.u32(*comm);
        }
        CommEvent::Barrier { comm } => {
            w.u8(7);
            w.u32(*comm);
        }
        CommEvent::Bcast { comm, root, bytes } => {
            w.u8(8);
            w.u32(*comm);
            w.u32(*root);
            w.u64(*bytes);
        }
        CommEvent::Reduce { comm, root, bytes } => {
            w.u8(9);
            w.u32(*comm);
            w.u32(*root);
            w.u64(*bytes);
        }
        CommEvent::Allreduce { comm, bytes } => {
            w.u8(10);
            w.u32(*comm);
            w.u64(*bytes);
        }
        CommEvent::Allgather { comm, bytes } => {
            w.u8(11);
            w.u32(*comm);
            w.u64(*bytes);
        }
        CommEvent::Alltoall { comm, bytes_per_peer } => {
            w.u8(12);
            w.u32(*comm);
            w.u64(*bytes_per_peer);
        }
        CommEvent::Alltoallv { comm, send_counts, recv_counts } => {
            w.u8(13);
            w.u32(*comm);
            w.u64s(send_counts);
            w.u64s(recv_counts);
        }
        CommEvent::Gather { comm, root, bytes } => {
            w.u8(14);
            w.u32(*comm);
            w.u32(*root);
            w.u64(*bytes);
        }
        CommEvent::Scatter { comm, root, bytes } => {
            w.u8(15);
            w.u32(*comm);
            w.u32(*root);
            w.u64(*bytes);
        }
        CommEvent::CommSplit { parent, color, key, result } => {
            w.u8(16);
            w.u32(*parent);
            w.i64(*color);
            w.i64(*key);
            match result {
                Some(r) => {
                    w.u8(1);
                    w.u32(*r);
                }
                None => w.u8(0),
            }
        }
        CommEvent::CommDup { parent, result } => {
            w.u8(17);
            w.u32(*parent);
            w.u32(*result);
        }
        CommEvent::CommFree { comm } => {
            w.u8(18);
            w.u32(*comm);
        }
        CommEvent::Gatherv { comm, root, counts } => {
            w.u8(19);
            w.u32(*comm);
            w.u32(*root);
            w.u64s(counts);
        }
        CommEvent::Scatterv { comm, root, counts } => {
            w.u8(20);
            w.u32(*comm);
            w.u32(*root);
            w.u64s(counts);
        }
        CommEvent::Scan { comm, bytes } => {
            w.u8(21);
            w.u32(*comm);
            w.u64(*bytes);
        }
        CommEvent::ReduceScatterBlock { comm, bytes_per_rank } => {
            w.u8(22);
            w.u32(*comm);
            w.u64(*bytes_per_rank);
        }
    }
}

/// Decode one normalized communication event.
pub fn get_event(r: &mut Reader) -> Result<CommEvent, WireError> {
    let tag = r.u8()?;
    Ok(match tag {
        0 => CommEvent::Send { rel: r.u32()?, tag: r.i32()?, bytes: r.u64()?, comm: r.u32()? },
        1 => CommEvent::Recv { rel: r.u32()?, tag: r.i32()?, bytes: r.u64()?, comm: r.u32()? },
        2 => CommEvent::Isend {
            rel: r.u32()?,
            tag: r.i32()?,
            bytes: r.u64()?,
            comm: r.u32()?,
            req: r.u32()?,
        },
        3 => CommEvent::Irecv {
            rel: r.u32()?,
            tag: r.i32()?,
            bytes: r.u64()?,
            comm: r.u32()?,
            req: r.u32()?,
        },
        4 => CommEvent::Wait { req: r.u32()? },
        5 => CommEvent::Waitall { reqs: r.u32s()? },
        6 => CommEvent::Sendrecv {
            dest_rel: r.u32()?,
            send_tag: r.i32()?,
            send_bytes: r.u64()?,
            src_rel: r.u32()?,
            recv_tag: r.i32()?,
            recv_bytes: r.u64()?,
            comm: r.u32()?,
        },
        7 => CommEvent::Barrier { comm: r.u32()? },
        8 => CommEvent::Bcast { comm: r.u32()?, root: r.u32()?, bytes: r.u64()? },
        9 => CommEvent::Reduce { comm: r.u32()?, root: r.u32()?, bytes: r.u64()? },
        10 => CommEvent::Allreduce { comm: r.u32()?, bytes: r.u64()? },
        11 => CommEvent::Allgather { comm: r.u32()?, bytes: r.u64()? },
        12 => CommEvent::Alltoall { comm: r.u32()?, bytes_per_peer: r.u64()? },
        13 => CommEvent::Alltoallv {
            comm: r.u32()?,
            send_counts: r.u64s()?,
            recv_counts: r.u64s()?,
        },
        14 => CommEvent::Gather { comm: r.u32()?, root: r.u32()?, bytes: r.u64()? },
        15 => CommEvent::Scatter { comm: r.u32()?, root: r.u32()?, bytes: r.u64()? },
        16 => {
            let parent = r.u32()?;
            let color = r.i64()?;
            let key = r.i64()?;
            let result = if r.u8()? == 1 { Some(r.u32()?) } else { None };
            CommEvent::CommSplit { parent, color, key, result }
        }
        17 => CommEvent::CommDup { parent: r.u32()?, result: r.u32()? },
        18 => CommEvent::CommFree { comm: r.u32()? },
        19 => CommEvent::Gatherv { comm: r.u32()?, root: r.u32()?, counts: r.u64s()? },
        20 => CommEvent::Scatterv { comm: r.u32()?, root: r.u32()?, counts: r.u64s()? },
        21 => CommEvent::Scan { comm: r.u32()?, bytes: r.u64()? },
        22 => CommEvent::ReduceScatterBlock { comm: r.u32()?, bytes_per_rank: r.u64()? },
        t => return Err(WireError::BadTag(t)),
    })
}

/// Smallest encoded event: a tag and one `u32`.
pub const MIN_EVENT_BYTES: usize = 5;
/// Encoded run-length symbol: tag, id, exponent.
pub const RSYM_BYTES: usize = 13;

/// Encode a run-length symbol: tag 0 and a terminal id, or tag 1 and a
/// rule id, then the exponent.
pub fn put_rsym(w: &mut Writer, rs: RSym) {
    let (tag, id) = match rs.sym {
        Sym::T(t) => (0, t),
        Sym::N(n) => (1, n),
    };
    w.u8(tag);
    w.u32(id);
    w.u64(rs.exp);
}

/// Decode a run-length symbol, refusing a zero exponent.
pub fn get_rsym(r: &mut Reader) -> Result<RSym, WireError> {
    let sym = match r.u8()? {
        0 => Sym::T(r.u32()?),
        1 => Sym::N(r.u32()?),
        t => return Err(WireError::BadTag(t)),
    };
    match r.u64()? {
        0 => Err(WireError::Invalid("zero exponent")),
        exp => Ok(RSym::new(sym, exp)),
    }
}

/// Encode a rule list: the rule count, then each body as a symbol count
/// and its run-length symbols.
pub fn put_rules(w: &mut Writer, rules: &[Vec<RSym>]) {
    w.u32(rules.len() as u32);
    for body in rules {
        w.u32(body.len() as u32);
        for &rs in body {
            put_rsym(w, rs);
        }
    }
}

pub fn get_rules(r: &mut Reader) -> Result<Vec<Vec<RSym>>, WireError> {
    let n = r.count(4)?;
    let mut rules = Vec::with_capacity(n);
    for _ in 0..n {
        let len = r.count(RSYM_BYTES)?;
        let mut body = Vec::with_capacity(len);
        for _ in 0..len {
            body.push(get_rsym(r)?);
        }
        rules.push(body);
    }
    Ok(rules)
}

/// Encode a rank set: the range count, then each inclusive range.
pub fn put_rankset(w: &mut Writer, s: &RankSet) {
    let ranges = s.ranges();
    w.u32(ranges.len() as u32);
    for &(a, b) in ranges {
        w.u32(a);
        w.u32(b);
    }
}

/// Decode a rank set of a job of `nranks` ranks, kept as ranges (see
/// [`RankSet::from_ranges`] for what is refused).
pub fn get_rankset(r: &mut Reader, nranks: usize) -> Result<RankSet, WireError> {
    let n = r.count(8)?;
    let mut ranges = Vec::with_capacity(n);
    for _ in 0..n {
        ranges.push((r.u32()?, r.u32()?));
    }
    RankSet::from_ranges(ranges, nranks).ok_or(WireError::Invalid("malformed rank set"))
}

/// Check that a decoded grammar is safe to expand: every `T(t)` in
/// `rules` and `roots` names one of `nterminals` terminals, every `N(n)`
/// names one of `rules`, and no rule derives itself. `roots` are symbols
/// kept outside the rule list (the `.siesta` main bodies). The cycle
/// search keeps its own stack, so a deep rule chain cannot overflow the
/// thread's.
pub fn check_grammar(
    rules: &[Vec<RSym>],
    roots: impl IntoIterator<Item = Sym>,
    nterminals: usize,
) -> Result<(), WireError> {
    for sym in rules.iter().flatten().map(|rs| rs.sym).chain(roots) {
        let exists = match sym {
            Sym::T(t) => (t as usize) < nterminals,
            Sym::N(n) => (n as usize) < rules.len(),
        };
        if !exists {
            return Err(WireError::DanglingSymbol(sym));
        }
    }
    // Depth-first over the rule graph. A rule is unvisited (0), on the
    // current path (1) or finished (2); reaching one on the path closes a
    // cycle.
    let mut state = vec![0u8; rules.len()];
    let mut path: Vec<(u32, usize)> = Vec::new();
    for start in 0..rules.len() {
        if state[start] != 0 {
            continue;
        }
        state[start] = 1;
        path.push((start as u32, 0));
        while let Some(top) = path.last_mut() {
            let (rule, pos) = *top;
            let Some(rs) = rules[rule as usize].get(pos) else {
                state[rule as usize] = 2;
                path.pop();
                continue;
            };
            top.1 += 1;
            if let Sym::N(n) = rs.sym {
                match state[n as usize] {
                    0 => {
                        state[n as usize] = 1;
                        path.push((n, 0));
                    }
                    1 => return Err(WireError::CyclicRule(n)),
                    _ => {}
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(id: u32) -> RSym {
        RSym::once(Sym::T(id))
    }

    fn n(id: u32) -> RSym {
        RSym::once(Sym::N(id))
    }

    #[test]
    fn grammar_check_refuses_dangling_and_cyclic_references() {
        let ok = vec![vec![n(1), t(0), n(2)], vec![n(2), t(1)], vec![t(0), t(1)]];
        assert_eq!(check_grammar(&ok, [Sym::N(0), Sym::T(1)], 2), Ok(()));
        assert_eq!(check_grammar(&ok, [], 1), Err(WireError::DanglingSymbol(Sym::T(1))));
        assert_eq!(
            check_grammar(&ok, [Sym::N(3)], 2),
            Err(WireError::DanglingSymbol(Sym::N(3)))
        );
        let self_loop = vec![vec![n(0)]];
        assert_eq!(check_grammar(&self_loop, [], 0), Err(WireError::CyclicRule(0)));
        let long_loop = vec![vec![t(0), n(1)], vec![n(2)], vec![t(0), n(1)]];
        assert_eq!(check_grammar(&long_loop, [], 1), Err(WireError::CyclicRule(1)));
        // A chain far deeper than any recursion could walk.
        let deep: Vec<Vec<RSym>> =
            (0..200_000).map(|i| vec![n(i + 1)]).chain([vec![t(0)]]).collect();
        assert_eq!(check_grammar(&deep, [], 1), Ok(()));
    }

    #[test]
    fn counts_the_remaining_bytes_cannot_hold_are_refused() {
        let mut w = Writer::new();
        w.u32(3);
        w.u64(1);
        w.u64(2);
        assert_eq!(Reader::new(&w.buf).u64s(), Err(WireError::Truncated));
        w.u64(3);
        assert_eq!(Reader::new(&w.buf).u64s(), Ok(vec![1, 2, 3]));
        let mut w = Writer::new();
        w.u32(u32::MAX);
        assert_eq!(get_rules(&mut Reader::new(&w.buf)), Err(WireError::Truncated));
    }

    #[test]
    fn rank_sets_decode_as_valid_ranges_only() {
        let decode = |ranges: &[(u32, u32)], nranks: usize| {
            let mut w = Writer::new();
            w.u32(ranges.len() as u32);
            for &(a, b) in ranges {
                w.u32(a);
                w.u32(b);
            }
            get_rankset(&mut Reader::new(&w.buf), nranks)
        };
        let set = decode(&[(0, 1), (3, 3)], 4).unwrap();
        assert_eq!(set, RankSet::from_iter([0, 1, 3]));
        let mut w = Writer::new();
        put_rankset(&mut w, &set);
        assert_eq!(get_rankset(&mut Reader::new(&w.buf), 4), Ok(set));
        for bad in [&[(0, 4294967294)][..], &[(2, 1)], &[(0, 1), (2, 3)], &[(2, 3), (0, 0)]] {
            assert!(decode(bad, 4).is_err(), "{bad:?} accepted");
        }
    }
}
