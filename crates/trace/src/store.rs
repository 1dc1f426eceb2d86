//! Zero-copy columnar trace store (`.siestatrace`, format `SIESTC1`), the
//! one on-disk form of a merged trace.
//!
//! The paper's workflow separates *collection* (PMPI tracing on the
//! production system) from *processing* (merging, grammar extraction,
//! synthesis — possibly offline). The store makes that split real:
//! `siesta trace --out app.siestatrace` on one machine,
//! `siesta synthesize --from-trace app.siestatrace` anywhere. Traces run
//! to many GB and replay and baseline comparison re-read them, so instead
//! of decoding row by row on every load the store lays a merged trace out
//! the way readers consume it, following the renacer tracing exemplar
//! (hash-interned ids, mmap-backed logs):
//!
//! * **Struct-of-arrays event table.** One `u8` kind/tag column and one
//!   `u64` payload-reference column (offset ≪ 32 | length into a payload
//!   pool), instead of variable-length rows. Scanning kinds never touches
//!   payload bytes.
//! * **Hash-interned payload pool.** Payload bytes are deduped through a
//!   `siesta-hash` u64 content index before writing — equal payloads
//!   (e.g. mirrored send/recv bodies) share pool storage.
//! * **Chunked sequence append.** Per-rank id sequences are appended as
//!   independent chunks (`rank`, `count`, FxHash checksum, raw
//!   little-endian `u32` ids, 4-byte aligned). A streaming producer emits
//!   chunks as buffers fill; a rank's sequence may span any number of
//!   chunks.
//! * **mmap-able.** [`TraceStore::open`] maps the file (falling back to a
//!   heap read where mapping is unavailable) and hands out chunk id
//!   slices **without deserialization**: on little-endian hosts with the
//!   mapping 4-byte aligned the `&[u32]` view is a pointer cast, checked
//!   and with a decode fallback, so a malformed file can reject but never
//!   produce UB.
//!
//! Every structural field is validated at open time — bounds, markers,
//! per-chunk checksums — so corrupt or truncated files fail with a
//! [`StoreError`] before any data is served.

use std::borrow::Cow;
use std::hash::Hasher;
use std::io::{self, Write};
use std::path::Path;

use siesta_hash::{fx_map_with_capacity, FxHashMap, FxHasher};

use crate::event::{ComputeStats, EventRecord};
use crate::merge::GlobalTrace;
use crate::wire::{get_event, put_event, Reader, WireError, Writer};

pub const STORE_MAGIC: &[u8; 8] = b"SIESTC1\0";
const STORE_VERSION: u32 = 1;
const HEADER_BYTES: usize = 32;
const CHUNK_HEADER_BYTES: usize = 16;
const FOOTER_BYTES: usize = 16;
const CHUNK_MARKER: u32 = u32::from_le_bytes(*b"CHNK");
const FOOTER_MARKER: u32 = u32::from_le_bytes(*b"FOTR");
/// Kind-column value for compute events (comm events use their wire tag).
const KIND_COMPUTE: u8 = 0xFF;
/// Ids per chunk when writing a whole sequence at once.
pub const DEFAULT_CHUNK_IDS: usize = 1 << 16;

/// Columnar-store decode/validation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    Wire(WireError),
    BadHeader(&'static str),
    BadChunk { index: usize, reason: &'static str },
    ChecksumMismatch { index: usize },
    BadFooter(&'static str),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Wire(e) => write!(f, "{e}"),
            StoreError::BadHeader(why) => write!(f, "corrupt store header: {why}"),
            StoreError::BadChunk { index, reason } => {
                write!(f, "corrupt chunk {index}: {reason}")
            }
            StoreError::ChecksumMismatch { index } => {
                write!(f, "chunk {index} checksum mismatch")
            }
            StoreError::BadFooter(why) => write!(f, "corrupt store footer: {why}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<WireError> for StoreError {
    fn from(e: WireError) -> StoreError {
        StoreError::Wire(e)
    }
}

fn fx_checksum(bytes: &[u8]) -> u32 {
    let mut h = FxHasher::default();
    h.write(bytes);
    let v = h.finish();
    (v ^ (v >> 32)) as u32
}

fn pad8(n: usize) -> usize {
    n.div_ceil(8) * 8
}

// ---------------------------------------------------------------------
// mmap backing (hand-declared against the libc std already links — the
// workspace stays zero-dependency). Linux/macOS share these constants.
// ---------------------------------------------------------------------
#[cfg(unix)]
mod map {
    use std::fs::File;
    use std::os::raw::{c_int, c_void};
    use std::os::unix::io::AsRawFd;

    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }

    const PROT_READ: c_int = 1;
    const MAP_PRIVATE: c_int = 2;

    /// A read-only private mapping of a whole file.
    pub struct Mmap {
        ptr: *mut c_void,
        len: usize,
    }

    // SAFETY: the mapping is read-only and owned; no interior mutability.
    unsafe impl Send for Mmap {}
    unsafe impl Sync for Mmap {}

    impl Mmap {
        pub fn map(file: &File) -> Option<Mmap> {
            let len = file.metadata().ok()?.len();
            if len == 0 || len > usize::MAX as u64 {
                return None;
            }
            let len = len as usize;
            // SAFETY: null hint, read-only private mapping over a file we
            // hold open; failure is reported as MAP_FAILED (-1), checked.
            let ptr = unsafe {
                mmap(std::ptr::null_mut(), len, PROT_READ, MAP_PRIVATE, file.as_raw_fd(), 0)
            };
            if ptr.is_null() || ptr as isize == -1 {
                return None;
            }
            Some(Mmap { ptr, len })
        }

        pub fn bytes(&self) -> &[u8] {
            // SAFETY: ptr/len come from a successful mmap; the mapping
            // lives until Drop.
            unsafe { std::slice::from_raw_parts(self.ptr as *const u8, self.len) }
        }
    }

    impl Drop for Mmap {
        fn drop(&mut self) {
            // SAFETY: exactly the region map() returned.
            unsafe {
                munmap(self.ptr, self.len);
            }
        }
    }
}

enum Backing {
    #[cfg(unix)]
    Mapped(map::Mmap),
    Owned(Vec<u8>),
}

impl Backing {
    fn bytes(&self) -> &[u8] {
        match self {
            #[cfg(unix)]
            Backing::Mapped(m) => m.bytes(),
            Backing::Owned(v) => v,
        }
    }
}

// ---------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------

/// Chunked-append columnar store writer. Construct with the merged table
/// (header + columns are emitted immediately), then [`append_chunk`] id
/// runs in any order — a streaming producer calls it once per flushed
/// buffer — and [`finish`] seals the file with the footer.
///
/// [`append_chunk`]: StoreWriter::append_chunk
/// [`finish`]: StoreWriter::finish
pub struct StoreWriter<W: Write> {
    sink: W,
    nchunks: u32,
    total_ids: u64,
}

impl<W: Write> StoreWriter<W> {
    pub fn new(
        mut sink: W,
        nranks: usize,
        merge_rounds: u32,
        raw_bytes: usize,
        table: &[EventRecord],
    ) -> io::Result<StoreWriter<W>> {
        // Columns are assembled in memory — the terminal table is the
        // *compressed* side of the trace (hundreds of entries, not
        // millions), only the sequences stream.
        let mut tags = Vec::with_capacity(table.len());
        let mut refs: Vec<u64> = Vec::with_capacity(table.len());
        let mut pool: Vec<u8> = Vec::new();
        // u64 content-hash intern index into the pool; equal payloads
        // share bytes. Buckets hold (offset, len) and are verified by
        // byte comparison, so a hash collision costs a compare, never a
        // wrong reference.
        let mut intern: FxHashMap<u64, Vec<(u32, u32)>> = fx_map_with_capacity(table.len());
        for rec in table {
            let (tag, payload) = encode_record(rec);
            let mut h = FxHasher::default();
            h.write(&payload);
            let key = h.finish();
            let bucket = intern.entry(key).or_default();
            let found = bucket
                .iter()
                .find(|&&(off, len)| {
                    &pool[off as usize..off as usize + len as usize] == payload.as_slice()
                })
                .copied();
            let (off, len) = match found {
                Some(hit) => hit,
                None => {
                    let off = pool.len() as u32;
                    let len = payload.len() as u32;
                    pool.extend_from_slice(&payload);
                    bucket.push((off, len));
                    (off, len)
                }
            };
            tags.push(tag);
            refs.push(((off as u64) << 32) | len as u64);
        }

        let mut head = Writer::new();
        head.buf.extend_from_slice(STORE_MAGIC);
        head.u32(STORE_VERSION);
        head.u32(nranks as u32);
        head.u32(merge_rounds);
        head.u64(raw_bytes as u64);
        head.u32(table.len() as u32);
        debug_assert_eq!(head.buf.len(), HEADER_BYTES);
        head.buf.extend_from_slice(&tags);
        head.buf.resize(pad8(head.buf.len()), 0);
        for r in &refs {
            head.u64(*r);
        }
        head.u64(pool.len() as u64);
        head.buf.extend_from_slice(&pool);
        head.buf.resize(pad8(head.buf.len()), 0);
        sink.write_all(&head.buf)?;
        Ok(StoreWriter { sink, nchunks: 0, total_ids: 0 })
    }

    /// Append one run of ids for `rank`. Runs for the same rank
    /// concatenate in append order.
    pub fn append_chunk(&mut self, rank: u32, ids: &[u32]) -> io::Result<()> {
        let mut w = Writer::new();
        w.u32(CHUNK_MARKER);
        w.u32(rank);
        w.u32(ids.len() as u32);
        let body_start = w.buf.len() + 4; // after the checksum field
        w.u32(0); // checksum placeholder
        for &id in ids {
            w.u32(id);
        }
        let sum = fx_checksum(&w.buf[body_start..]);
        w.buf[body_start - 4..body_start].copy_from_slice(&sum.to_le_bytes());
        debug_assert_eq!(w.buf.len(), CHUNK_HEADER_BYTES + ids.len() * 4);
        self.sink.write_all(&w.buf)?;
        self.nchunks += 1;
        self.total_ids += ids.len() as u64;
        Ok(())
    }

    /// Seal the store and return the sink.
    pub fn finish(mut self) -> io::Result<W> {
        let mut w = Writer::new();
        w.u32(FOOTER_MARKER);
        w.u32(self.nchunks);
        w.u64(self.total_ids);
        debug_assert_eq!(w.buf.len(), FOOTER_BYTES);
        self.sink.write_all(&w.buf)?;
        self.sink.flush()?;
        Ok(self.sink)
    }
}

fn encode_record(rec: &EventRecord) -> (u8, Vec<u8>) {
    match rec {
        EventRecord::Comm(e) => {
            let mut w = Writer::new();
            put_event(&mut w, e);
            (w.buf[0], w.buf)
        }
        EventRecord::Compute(s) => {
            let mut w = Writer::new();
            w.counters(&s.repr);
            w.counters(&s.sum);
            w.u64(s.count);
            (KIND_COMPUTE, w.buf)
        }
    }
}

/// Serialize a whole merged trace in store format (sequences chunked at
/// [`DEFAULT_CHUNK_IDS`] ids).
pub fn store_to_bytes(t: &GlobalTrace) -> Vec<u8> {
    let mut w = StoreWriter::new(
        Vec::new(),
        t.nranks,
        t.merge_rounds,
        t.raw_bytes,
        &t.table,
    )
    .expect("Vec sink cannot fail");
    for (rank, seq) in t.seqs.iter().enumerate() {
        for chunk in seq.chunks(DEFAULT_CHUNK_IDS) {
            w.append_chunk(rank as u32, chunk).expect("Vec sink cannot fail");
        }
    }
    w.finish().expect("Vec sink cannot fail")
}

/// Write a whole merged trace to a store file.
pub fn write_store(t: &GlobalTrace, path: &Path) -> io::Result<()> {
    let file = std::fs::File::create(path)?;
    let mut w = io::BufWriter::new(file);
    let mut sw = StoreWriter::new(&mut w, t.nranks, t.merge_rounds, t.raw_bytes, &t.table)?;
    for (rank, seq) in t.seqs.iter().enumerate() {
        for chunk in seq.chunks(DEFAULT_CHUNK_IDS) {
            sw.append_chunk(rank as u32, chunk)?;
        }
    }
    sw.finish()?;
    w.flush()
}

// ---------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------

/// Load a merged trace from a store file.
pub fn load_trace(path: &Path) -> Result<GlobalTrace, Box<dyn std::error::Error>> {
    Ok(TraceStore::open(path)?.to_global_trace()?)
}

struct ChunkMeta {
    /// Byte offset of the ids array.
    ids_off: usize,
    count: usize,
}

/// An opened columnar trace store: validated once, then served zero-copy.
pub struct TraceStore {
    backing: Backing,
    nranks: usize,
    merge_rounds: u32,
    raw_bytes: usize,
    table_len: usize,
    tags_off: usize,
    refs_off: usize,
    pool_off: usize,
    pool_len: usize,
    chunks: Vec<ChunkMeta>,
    /// Chunk indices per rank, in append order.
    by_rank: Vec<Vec<u32>>,
}

impl TraceStore {
    /// Open a store file, mapping it into memory where the platform
    /// allows (falling back to a heap read).
    pub fn open(path: &Path) -> Result<TraceStore, Box<dyn std::error::Error>> {
        #[cfg(unix)]
        {
            let file = std::fs::File::open(path)?;
            if let Some(m) = map::Mmap::map(&file) {
                return Ok(TraceStore::parse(Backing::Mapped(m))?);
            }
        }
        let bytes = std::fs::read(path)?;
        Ok(TraceStore::parse(Backing::Owned(bytes))?)
    }

    /// Open a store from an in-memory image.
    pub fn from_bytes(bytes: Vec<u8>) -> Result<TraceStore, StoreError> {
        TraceStore::parse(Backing::Owned(bytes))
    }

    fn parse(backing: Backing) -> Result<TraceStore, StoreError> {
        let b = backing.bytes();
        if b.len() < HEADER_BYTES + FOOTER_BYTES {
            return Err(StoreError::BadHeader("file shorter than header + footer"));
        }
        if &b[..8] != STORE_MAGIC {
            return Err(StoreError::Wire(WireError::BadMagic));
        }
        let mut r = Reader::new(&b[8..HEADER_BYTES]);
        let version = r.u32().expect("sized above");
        if version != STORE_VERSION {
            return Err(StoreError::Wire(WireError::UnsupportedVersion(version as u8)));
        }
        let nranks = r.u32().expect("sized above") as usize;
        let merge_rounds = r.u32().expect("sized above");
        let raw_bytes = r.u64().expect("sized above") as usize;
        let table_len = r.u32().expect("sized above") as usize;

        let tags_off = HEADER_BYTES;
        let refs_off = pad8(tags_off + table_len);
        let pool_len_off = refs_off.checked_add(table_len * 8).ok_or(StoreError::BadHeader(
            "table length overflows",
        ))?;
        if pool_len_off + 8 > b.len() - FOOTER_BYTES {
            return Err(StoreError::BadHeader("table columns overrun file"));
        }
        let pool_off = pool_len_off + 8;
        let pool_len =
            u64::from_le_bytes(b[pool_len_off..pool_off].try_into().unwrap()) as usize;
        let chunks_off = pad8(pool_off.checked_add(pool_len).ok_or(StoreError::BadHeader(
            "payload pool length overflows",
        ))?);
        let footer_off = b.len() - FOOTER_BYTES;
        if chunks_off > footer_off {
            return Err(StoreError::BadHeader("payload pool overruns file"));
        }

        // Walk the chunk region, validating structure and checksums.
        let mut chunks = Vec::new();
        let mut by_rank: Vec<Vec<u32>> = vec![Vec::new(); nranks];
        let mut pos = chunks_off;
        let mut total_ids = 0u64;
        while pos < footer_off {
            let index = chunks.len();
            if pos + CHUNK_HEADER_BYTES > footer_off {
                return Err(StoreError::BadChunk { index, reason: "truncated header" });
            }
            let mut ch = Reader::new(&b[pos..pos + CHUNK_HEADER_BYTES]);
            if ch.u32().expect("sized above") != CHUNK_MARKER {
                return Err(StoreError::BadChunk { index, reason: "bad marker" });
            }
            let rank = ch.u32().expect("sized above") as usize;
            let count = ch.u32().expect("sized above") as usize;
            let sum = ch.u32().expect("sized above");
            if rank >= nranks {
                return Err(StoreError::BadChunk { index, reason: "rank out of range" });
            }
            let ids_off = pos + CHUNK_HEADER_BYTES;
            let ids_bytes = count.checked_mul(4).ok_or(StoreError::BadChunk {
                index,
                reason: "count overflows",
            })?;
            if ids_off + ids_bytes > footer_off {
                return Err(StoreError::BadChunk { index, reason: "ids overrun file" });
            }
            if fx_checksum(&b[ids_off..ids_off + ids_bytes]) != sum {
                return Err(StoreError::ChecksumMismatch { index });
            }
            by_rank[rank].push(index as u32);
            chunks.push(ChunkMeta { ids_off, count });
            total_ids += count as u64;
            pos = ids_off + ids_bytes;
        }
        let mut fr = Reader::new(&b[footer_off..]);
        if fr.u32().expect("sized above") != FOOTER_MARKER {
            return Err(StoreError::BadFooter("bad marker"));
        }
        if fr.u32().expect("sized above") as usize != chunks.len() {
            return Err(StoreError::BadFooter("chunk count mismatch"));
        }
        if fr.u64().expect("sized above") != total_ids {
            return Err(StoreError::BadFooter("id count mismatch"));
        }

        Ok(TraceStore {
            backing,
            nranks,
            merge_rounds,
            raw_bytes,
            table_len,
            tags_off,
            refs_off,
            pool_off,
            pool_len,
            chunks,
            by_rank,
        })
    }

    pub fn nranks(&self) -> usize {
        self.nranks
    }

    pub fn merge_rounds(&self) -> u32 {
        self.merge_rounds
    }

    pub fn raw_bytes(&self) -> usize {
        self.raw_bytes
    }

    pub fn table_len(&self) -> usize {
        self.table_len
    }

    /// The kind column: one byte per table entry (a comm event's wire tag,
    /// or `0xFF` for compute events). Zero-copy.
    pub fn kinds(&self) -> &[u8] {
        &self.backing.bytes()[self.tags_off..self.tags_off + self.table_len]
    }

    /// Decode the terminal table. This is the only deserializing read —
    /// tables are the compressed side of the trace.
    pub fn table(&self) -> Result<Vec<EventRecord>, StoreError> {
        let b = self.backing.bytes();
        let kinds = self.kinds();
        let mut table = Vec::with_capacity(self.table_len);
        for (i, &kind) in kinds.iter().enumerate() {
            let ref_off = self.refs_off + i * 8;
            let packed = u64::from_le_bytes(b[ref_off..ref_off + 8].try_into().unwrap());
            let (off, len) = ((packed >> 32) as usize, (packed & 0xffff_ffff) as usize);
            if off + len > self.pool_len {
                return Err(StoreError::BadHeader("payload reference overruns pool"));
            }
            let payload = &b[self.pool_off + off..self.pool_off + off + len];
            if kind == KIND_COMPUTE {
                let mut r = Reader::new(payload);
                let repr = r.counters()?;
                let sum = r.counters()?;
                let count = r.u64()?;
                table.push(EventRecord::Compute(ComputeStats { repr, sum, count }));
            } else {
                let mut r = Reader::new(payload);
                let e = get_event(&mut r)?;
                if payload.first() != Some(&kind) {
                    return Err(StoreError::BadHeader("kind column disagrees with payload"));
                }
                table.push(EventRecord::Comm(e));
            }
        }
        Ok(table)
    }

    pub fn seq_len(&self, rank: usize) -> usize {
        self.by_rank[rank].iter().map(|&c| self.chunks[c as usize].count).sum()
    }

    /// Iterate a rank's id chunks in append order. On little-endian hosts
    /// with an aligned backing each chunk is a borrowed `&[u32]` view of
    /// the file — no copy, no decode; otherwise the chunk is decoded.
    pub fn rank_chunks(&self, rank: usize) -> impl Iterator<Item = Cow<'_, [u32]>> {
        self.by_rank[rank].iter().map(|&c| {
            let m = &self.chunks[c as usize];
            self.ids_at(m.ids_off, m.count)
        })
    }

    /// Materialize one rank's full sequence.
    pub fn seq(&self, rank: usize) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.seq_len(rank));
        for c in self.rank_chunks(rank) {
            out.extend_from_slice(&c);
        }
        out
    }

    /// True if id reads are served as borrowed casts (little-endian host,
    /// 4-byte-aligned backing) rather than decode copies.
    pub fn zero_copy(&self) -> bool {
        cfg!(target_endian = "little")
            && (self.backing.bytes().as_ptr() as usize).is_multiple_of(4)
    }

    fn ids_at(&self, off: usize, count: usize) -> Cow<'_, [u32]> {
        let bytes = &self.backing.bytes()[off..off + count * 4];
        if cfg!(target_endian = "little") && (bytes.as_ptr() as usize).is_multiple_of(4) {
            // SAFETY: length and 4-byte alignment checked; every bit
            // pattern is a valid u32; lifetime is tied to &self's backing.
            Cow::Borrowed(unsafe {
                std::slice::from_raw_parts(bytes.as_ptr() as *const u32, count)
            })
        } else {
            Cow::Owned(
                bytes
                    .chunks_exact(4)
                    .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
                    .collect(),
            )
        }
    }

    /// Materialize the whole store as a [`GlobalTrace`].
    pub fn to_global_trace(&self) -> Result<GlobalTrace, StoreError> {
        Ok(GlobalTrace {
            nranks: self.nranks,
            table: self.table()?,
            seqs: (0..self.nranks).map(|r| self.seq(r)).collect(),
            raw_bytes: self.raw_bytes,
            merge_rounds: self.merge_rounds,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::CommEvent;
    use siesta_perfmodel::CounterVec;

    fn sample() -> GlobalTrace {
        GlobalTrace {
            nranks: 3,
            table: vec![
                EventRecord::Comm(CommEvent::Send { rel: 1, tag: 3, bytes: 4096, comm: 0 }),
                EventRecord::Compute(ComputeStats {
                    repr: CounterVec::new(1.5, 2.5, 3.5, 4.5, 5.5, 6.5),
                    sum: CounterVec::new(3.0, 5.0, 7.0, 9.0, 11.0, 13.0),
                    count: 2,
                }),
                EventRecord::Comm(CommEvent::Send { rel: 1, tag: 3, bytes: 4096, comm: 1 }),
                EventRecord::Comm(CommEvent::Waitall { reqs: vec![0, 1, 2] }),
            ],
            seqs: vec![vec![0, 1, 2, 3, 0, 1], vec![1, 0], vec![]],
            raw_bytes: 12345,
            merge_rounds: 2,
        }
    }

    #[test]
    fn round_trips_through_bytes() {
        let t = sample();
        let store = TraceStore::from_bytes(store_to_bytes(&t)).expect("parse");
        let u = store.to_global_trace().expect("decode");
        assert_eq!(t.nranks, u.nranks);
        assert_eq!(t.merge_rounds, u.merge_rounds);
        assert_eq!(t.raw_bytes, u.raw_bytes);
        assert_eq!(t.seqs, u.seqs);
        assert_eq!(format!("{:?}", t.table), format!("{:?}", u.table));
    }

    #[test]
    fn round_trips_through_file_mmap() {
        let t = sample();
        let dir = std::env::temp_dir().join(format!("siesta-store-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.siestatrace");
        write_store(&t, &path).expect("write");
        let store = TraceStore::open(&path).expect("open");
        assert_eq!(store.seq(0), t.seqs[0]);
        assert_eq!(store.seq(2), t.seqs[2]);
        assert_eq!(store.to_global_trace().unwrap().seqs, t.seqs);
        #[cfg(all(unix, target_endian = "little"))]
        assert!(store.zero_copy(), "mmap of a page-aligned file must serve borrowed ids");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn chunked_append_spans_ranks() {
        // A streaming producer interleaves small chunks across ranks; the
        // reader must reassemble per-rank order.
        let mut w = StoreWriter::new(Vec::new(), 2, 1, 10, &sample().table).unwrap();
        w.append_chunk(0, &[0, 1]).unwrap();
        w.append_chunk(1, &[3]).unwrap();
        w.append_chunk(0, &[2]).unwrap();
        w.append_chunk(1, &[]).unwrap();
        w.append_chunk(0, &[3, 0]).unwrap();
        let store = TraceStore::from_bytes(w.finish().unwrap()).expect("parse");
        assert_eq!(store.seq(0), vec![0, 1, 2, 3, 0]);
        assert_eq!(store.seq(1), vec![3]);
        assert_eq!(store.rank_chunks(0).count(), 3);
    }

    #[test]
    fn payload_pool_interns_duplicates() {
        // Two identical Send bodies (different comm) share nothing, but
        // genuinely equal records do: table entries 0 and 2 differ only in
        // comm, so force a true duplicate and check the pool stays flat.
        let mut t = sample();
        let dup = t.table[0].clone();
        t.table.push(dup);
        let with_dup = store_to_bytes(&t).len();
        t.table.push(EventRecord::Comm(CommEvent::Send {
            rel: 9,
            tag: 9,
            bytes: 999,
            comm: 9,
        }));
        let with_unique = store_to_bytes(&t).len();
        // The duplicate added only a column slot (9 bytes with padding);
        // the unique event added a column slot *and* pool bytes.
        assert!(with_unique > with_dup + 8);
    }

    #[test]
    fn rejects_corruption_structurally() {
        let bytes = store_to_bytes(&sample());
        // Truncations at every section boundary and a few interior points.
        for cut in [0usize, 7, 16, 31, 40, bytes.len() - FOOTER_BYTES, bytes.len() - 1] {
            assert!(TraceStore::from_bytes(bytes[..cut].to_vec()).is_err(), "cut {cut}");
        }
        // Bad magic.
        let mut b = bytes.clone();
        b[0] ^= 0x40;
        assert!(matches!(
            TraceStore::from_bytes(b),
            Err(StoreError::Wire(WireError::BadMagic))
        ));
        // Flip one id bit: the chunk checksum must catch it.
        let mut b = bytes.clone();
        let ids_somewhere = b.len() - FOOTER_BYTES - 3;
        b[ids_somewhere] ^= 1;
        assert!(matches!(
            TraceStore::from_bytes(b),
            Err(StoreError::ChecksumMismatch { .. })
        ));
        // Corrupt a chunk rank to out-of-range.
        let store = TraceStore::from_bytes(bytes.clone()).unwrap();
        let first_chunk_header = store.chunks[0].ids_off - CHUNK_HEADER_BYTES;
        let mut b = bytes.clone();
        b[first_chunk_header + 4..first_chunk_header + 8]
            .copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            TraceStore::from_bytes(b),
            Err(StoreError::BadChunk { reason: "rank out of range", .. })
        ));
        // Corrupt the footer id count.
        let mut b = bytes;
        let n = b.len();
        b[n - 8..n].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(TraceStore::from_bytes(b), Err(StoreError::BadFooter(_))));
    }

    #[test]
    fn empty_table_and_empty_seqs() {
        let t = GlobalTrace {
            nranks: 1,
            table: vec![],
            seqs: vec![vec![]],
            raw_bytes: 0,
            merge_rounds: 0,
        };
        let store = TraceStore::from_bytes(store_to_bytes(&t)).expect("parse");
        assert_eq!(store.table().unwrap(), vec![]);
        assert_eq!(store.seq(0), Vec::<u32>::new());
    }
}
