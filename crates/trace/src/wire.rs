//! Little-endian byte primitives and the communication-event codec that
//! Siesta's binary formats build on: the columnar trace store
//! ([`crate::store`], `.siestatrace`) and the proxy-app codec of
//! `siesta-codegen` (`.siesta`).

use siesta_perfmodel::CounterVec;

use crate::event::CommEvent;

/// Decoding failure (shared by every Siesta wire format).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    BadMagic,
    UnsupportedVersion(u8),
    Truncated,
    BadTag(u8),
    BadString,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::BadMagic => write!(f, "bad magic (wrong file type)"),
            WireError::UnsupportedVersion(v) => write!(f, "unsupported format version {v}"),
            WireError::Truncated => write!(f, "file truncated"),
            WireError::BadTag(t) => write!(f, "corrupt file (unknown tag {t})"),
            WireError::BadString => write!(f, "corrupt file (invalid UTF-8)"),
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
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.pos + n > self.buf.len() {
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
    pub fn str(&mut self) -> Result<String, WireError> {
        let n = self.u32()? as usize;
        String::from_utf8(self.take(n)?.to_vec()).map_err(|_| WireError::BadString)
    }
    pub fn u64s(&mut self) -> Result<Vec<u64>, WireError> {
        let n = self.u32()? as usize;
        (0..n).map(|_| self.u64()).collect()
    }
    pub fn u32s(&mut self) -> Result<Vec<u32>, WireError> {
        let n = self.u32()? as usize;
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
