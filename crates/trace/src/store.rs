//! The lossless trace store (`.siestatrace`): a merged trace as the
//! grammars that already compress it.
//!
//! The paper's workflow separates *collection* (PMPI tracing on the
//! production system) from *processing* (merging, grammar extraction,
//! synthesis — possibly offline). The store makes that split real:
//! `siesta trace --out app.siestatrace` on one machine,
//! `siesta synthesize --from-trace app.siestatrace` anywhere. It holds
//! exactly what a [`StreamedGlobal`] holds, so loading one resumes the
//! live pipeline where the grammar lift left off, and no rank's sequence
//! is expanded or rebuilt. Like Pilgrim, the paper's trace-compression
//! baseline, it keeps one grammar per distinct rank stream.
//!
//! Layout, little-endian, in the `.siesta` encodings of
//! [`crate::wire`]:
//!
//! * magic `SIESTC1\0`, `u32` version, `u32` nranks, `u32` merge rounds,
//!   `u64` raw trace bytes;
//! * the terminal table as tagged records: tag 0 and an event, or tag 1
//!   and a compute cluster's representative, sum and count;
//! * the distinct grammars in first-seen rank order, each a rule list
//!   whose rule 0 is the main rule. The writer numbers them with
//!   `siesta_hash::first_seen`, keyed on the grammar itself: equality
//!   decides, the hash only routes;
//! * one `u32` grammar index per rank;
//! * a `u64` FxHash of all preceding bytes. A flipped bit changes exactly
//!   one input word of the hash and every mixing step is a bijection, so
//!   every single-bit flip is detected.
//!
//! The loader checks the checksum, every index and every grammar's
//! references before returning, so a corrupt file fails with a
//! [`StoreError`] instead of a panic in the synthesis that follows.

use std::hash::Hasher;
use std::path::Path;
use std::sync::Arc;

use siesta_grammar::Grammar;
use siesta_hash::{first_seen, FirstSeen, FxHasher};

use crate::event::{ComputeStats, EventRecord};
use crate::merge::StreamedGlobal;
use crate::wire::{
    check_grammar, get_event, get_rules, put_event, put_rules, Reader, WireError, Writer,
    MIN_EVENT_BYTES,
};

pub const STORE_MAGIC: &[u8; 8] = b"SIESTC1\0";
const STORE_VERSION: u32 = 2;
/// Magic and version: what must be read before the version can be refused.
const PREFIX_BYTES: usize = 12;
const CHECKSUM_BYTES: usize = 8;

/// Trace-store decode/validation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    Wire(WireError),
    ChecksumMismatch,
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Wire(e) => write!(f, "{e}"),
            StoreError::ChecksumMismatch => write!(f, "corrupt file (checksum mismatch)"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<WireError> for StoreError {
    fn from(e: WireError) -> StoreError {
        StoreError::Wire(e)
    }
}

fn checksum(bytes: &[u8]) -> u64 {
    let mut h = FxHasher::default();
    h.write(bytes);
    h.finish()
}

fn put_record(w: &mut Writer, rec: &EventRecord) {
    match rec {
        EventRecord::Comm(e) => {
            w.u8(0);
            put_event(w, e);
        }
        EventRecord::Compute(s) => {
            w.u8(1);
            w.counters(&s.repr);
            w.counters(&s.sum);
            w.u64(s.count);
        }
    }
}

fn get_record(r: &mut Reader) -> Result<EventRecord, WireError> {
    match r.u8()? {
        0 => Ok(EventRecord::Comm(get_event(r)?)),
        1 => Ok(EventRecord::Compute(ComputeStats {
            repr: r.counters()?,
            sum: r.counters()?,
            count: r.u64()?,
        })),
        t => Err(WireError::BadTag(t)),
    }
}

/// Serialize a merged trace in store format. Ranks with equal grammars
/// share one stored copy.
pub fn store_to_bytes(sg: &StreamedGlobal) -> Vec<u8> {
    let mut w = Writer::new();
    w.buf.extend_from_slice(STORE_MAGIC);
    w.u32(STORE_VERSION);
    w.u32(sg.nranks as u32);
    w.u32(sg.merge_rounds);
    w.u64(sg.raw_bytes as u64);
    w.u32(sg.table.len() as u32);
    for rec in &sg.table {
        put_record(&mut w, rec);
    }
    // Distinct grammars in first-seen rank order, then each rank's index.
    let FirstSeen { class, first } = first_seen(&sg.grammars);
    w.u32(first.len() as u32);
    for &rank in &first {
        put_rules(&mut w, &sg.grammars[rank].rules);
    }
    for id in class {
        w.u32(id as u32);
    }
    let sum = checksum(&w.buf);
    w.u64(sum);
    w.buf
}

/// Write a merged trace to a store file.
pub fn write_store(sg: &StreamedGlobal, path: &Path) -> std::io::Result<()> {
    std::fs::write(path, store_to_bytes(sg))
}

/// Decode and validate a store image.
pub fn store_from_bytes(bytes: &[u8]) -> Result<StreamedGlobal, StoreError> {
    let mut r = Reader::new(bytes);
    if r.take(STORE_MAGIC.len())? != STORE_MAGIC {
        return Err(WireError::BadMagic.into());
    }
    let version = r.u32()?;
    if version != STORE_VERSION {
        return Err(WireError::UnsupportedVersion(version).into());
    }
    let body_end = bytes
        .len()
        .checked_sub(CHECKSUM_BYTES)
        .filter(|&end| end >= PREFIX_BYTES)
        .ok_or(WireError::Truncated)?;
    let (body, sum) = bytes.split_at(body_end);
    if checksum(body) != u64::from_le_bytes(sum.try_into().expect("8 bytes")) {
        return Err(StoreError::ChecksumMismatch);
    }

    let mut r = Reader::new(&body[PREFIX_BYTES..]);
    let nranks = r.u32()? as usize;
    let merge_rounds = r.u32()?;
    let raw_bytes = r.u64()? as usize;
    // A record is at least a tag and an event.
    let ntable = r.count(1 + MIN_EVENT_BYTES)?;
    let table = (0..ntable).map(|_| get_record(&mut r)).collect::<Result<Vec<_>, _>>()?;
    let ngrammars = r.count(4)?;
    let mut distinct = Vec::with_capacity(ngrammars);
    for _ in 0..ngrammars {
        let rules = get_rules(&mut r)?;
        if rules.is_empty() {
            return Err(WireError::Invalid("grammar without a main rule").into());
        }
        check_grammar(&rules, [], table.len())?;
        distinct.push(Arc::new(Grammar { rules }));
    }
    let index_bytes = nranks.checked_mul(4).ok_or(WireError::Truncated)?;
    let grammars = r
        .take(index_bytes)?
        .chunks_exact(4)
        .map(|b| {
            let id = u32::from_le_bytes(b.try_into().expect("4 bytes"));
            distinct.get(id as usize).cloned()
        })
        .collect::<Option<Vec<_>>>()
        .ok_or(WireError::Invalid("grammar index out of range"))?;
    if r.remaining() != 0 {
        return Err(WireError::Invalid("trailing bytes").into());
    }
    Ok(StreamedGlobal { nranks, table, grammars, raw_bytes, merge_rounds })
}

/// Load a merged trace from a store file.
pub fn load_trace(path: &Path) -> Result<StreamedGlobal, Box<dyn std::error::Error>> {
    Ok(store_from_bytes(&std::fs::read(path)?)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::CommEvent;
    use siesta_grammar::{RSym, Sequitur, Sym};
    use siesta_perfmodel::CounterVec;

    /// Ranks 0 and 3 share a grammar, and rank 2 recorded nothing.
    fn sample() -> StreamedGlobal {
        let seqs: [&[u32]; 4] = [&[0, 1, 2, 3, 0, 1], &[1, 0], &[], &[0, 1, 2, 3, 0, 1]];
        StreamedGlobal {
            nranks: seqs.len(),
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
            grammars: seqs.iter().map(|s| Arc::new(Sequitur::build(s))).collect(),
            raw_bytes: 12345,
            merge_rounds: 2,
        }
    }

    #[test]
    fn round_trips_through_bytes() {
        let bytes = store_to_bytes(&sample());
        assert_eq!(store_from_bytes(&bytes), Ok(sample()));
        // Rank 3's grammar is stored once: dropping it leaves the size
        // unchanged but for its index entry.
        let mut three = sample();
        three.nranks = 3;
        three.grammars.pop();
        assert_eq!(store_to_bytes(&three).len() + 4, bytes.len());
    }

    #[test]
    fn round_trips_through_file() {
        let sg = sample();
        let path = std::env::temp_dir()
            .join(format!("siesta-store-{}.siestatrace", std::process::id()));
        write_store(&sg, &path).expect("write");
        let back = load_trace(&path).expect("load");
        std::fs::remove_file(&path).ok();
        assert_eq!(back, sg);
    }

    #[test]
    fn refuses_bad_magic_and_version_one() {
        let mut b = store_to_bytes(&sample());
        b[0] ^= 0x40;
        assert_eq!(store_from_bytes(&b), Err(StoreError::Wire(WireError::BadMagic)));
        // A version-1 header (the flat-sequence store) is refused before
        // anything else is read.
        let mut v1 = STORE_MAGIC.to_vec();
        v1.extend_from_slice(&1u32.to_le_bytes());
        v1.extend_from_slice(&[0; 20]);
        let err = store_from_bytes(&v1).unwrap_err();
        assert_eq!(err, StoreError::Wire(WireError::UnsupportedVersion(1)));
        assert_eq!(err.to_string(), "unsupported format version 1");
    }

    #[test]
    fn rejects_corruption_structurally() {
        // Re-seal an edited body, as a file written by other means would be.
        let reseal = |edit: &dyn Fn(&mut StreamedGlobal)| {
            let mut sg = sample();
            edit(&mut sg);
            store_from_bytes(&store_to_bytes(&sg))
        };
        let self_loop = |sg: &mut StreamedGlobal| {
            Arc::make_mut(&mut sg.grammars[1]).rules[0][0] = RSym::once(Sym::N(0))
        };
        assert_eq!(reseal(&self_loop), Err(StoreError::Wire(WireError::CyclicRule(0))));
        let dangling = |sg: &mut StreamedGlobal| sg.table.truncate(2);
        assert!(matches!(reseal(&dangling), Err(StoreError::Wire(WireError::DanglingSymbol(_)))));
        let no_main = |sg: &mut StreamedGlobal| Arc::make_mut(&mut sg.grammars[1]).rules.clear();
        let err = StoreError::Wire(WireError::Invalid("grammar without a main rule"));
        assert_eq!(reseal(&no_main), Err(err));
        // An index past the distinct grammars.
        let mut b = store_to_bytes(&sample());
        let n = b.len();
        b[n - 12..n - 8].copy_from_slice(&9u32.to_le_bytes());
        let sum = checksum(&b[..n - 8]);
        b[n - 8..].copy_from_slice(&sum.to_le_bytes());
        let err = StoreError::Wire(WireError::Invalid("grammar index out of range"));
        assert_eq!(store_from_bytes(&b), Err(err));
        // Without re-sealing, the checksum refuses the edit.
        b[n - 9] ^= 1;
        assert_eq!(store_from_bytes(&b), Err(StoreError::ChecksumMismatch));
    }

    #[test]
    fn empty_table_and_empty_seqs() {
        let sg = StreamedGlobal {
            nranks: 1,
            table: vec![],
            grammars: vec![Arc::new(Sequitur::build(&[]))],
            raw_bytes: 0,
            merge_rounds: 0,
        };
        assert_eq!(store_from_bytes(&store_to_bytes(&sg)), Ok(sg));
    }
}
