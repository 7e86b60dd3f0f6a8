//! The store's read fast path: query descriptions, a lazy streaming
//! [`RecordCursor`], and the parallel per-segment fold behind every
//! `Store` query.
//!
//! Three ideas, layered (DESIGN.md §17):
//!
//! 1. **A [`Query`] is data.** Interval window, run, tenant, and record
//!    shape are one struct checked at two granularities: against an
//!    [`IndexEntry`] (may this *batch* hold a match? — pure index
//!    arithmetic, no file I/O) and against a decoded [`StoredRecord`]
//!    (is this record a match?). Every batch the entry check rejects is
//!    never read off disk, which is where the tenant-presence filter and
//!    kind bitmap pay off.
//! 2. **Batches stream through one reusable buffer.** A segment reader
//!    seeks to each surviving batch, reads exactly its frame into a
//!    buffer reused across batches *and* segments, CRC-checks it, and
//!    decodes records one at a time. A [`StoredRecord`] owns no heap
//!    data, so handing stack copies to a visitor allocates nothing:
//!    memory is O(largest batch), not O(result set) — the
//!    `store_query` example pins this with a VmHWM measurement.
//! 3. **Segments fan out; results fold in segment order.** Sealed
//!    segments are independent files, so `fold_records` runs them on
//!    the same ordered-shard driver the fleet uses
//!    ([`ordered_shards`], one segment per shard) and gets
//!    the per-segment partials back *in segment id order*, so the
//!    result is byte-identical to a single-threaded scan at any thread
//!    count — the `scan_equivalence` test pins threads {1, 2, 8} against
//!    each other.

use std::fs::File;
use std::io::{Read as _, Seek as _, SeekFrom};
use std::ops::Range;
use std::path::{Path, PathBuf};

use crate::codec::BatchDecoder;
use crate::index::{IndexEntry, SegmentIndex};
use crate::record::{etag_of, Cursor, RecordPayload, RunId, StoredRecord};
use crate::segment::{self, Batch};
use crate::store::StoreError;
use dasr_core::runner::ordered::ordered_shards;

/// What record shapes a query wants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Shape {
    /// Events and samples alike.
    #[default]
    All,
    /// Telemetry samples only.
    Samples,
    /// Events only, restricted to the tags whose bits are set in the
    /// mask (`1 << etag`; [`KindSet::ALL_EVENTS`](crate::index::KindSet::ALL_EVENTS)
    /// for every event).
    Events(u16),
}

/// A declarative record query: every field narrows the result, `None`
/// (or [`Shape::All`]) leaves that axis unconstrained.
///
/// The same struct prunes at batch granularity
/// ([`matches_entry`](Self::matches_entry) — index arithmetic only) and
/// filters at record granularity
/// ([`matches_record`](Self::matches_record)).
#[derive(Debug, Clone, Default)]
pub struct Query {
    /// Keep records whose billing interval is in this half-open window.
    pub intervals: Option<Range<u64>>,
    /// Keep records of this run.
    pub run: Option<RunId>,
    /// Keep records stamped with this tenant (un-stamped records never
    /// match a tenant constraint).
    pub tenant: Option<u64>,
    /// Keep records of this shape.
    pub shape: Shape,
}

impl Query {
    /// True when a batch described by `e` may hold a matching record —
    /// a `false` here is a *proof* of absence, so the batch is skipped
    /// without touching segment bytes.
    // dasr-lint: no-alloc
    pub fn matches_entry(&self, e: &IndexEntry) -> bool {
        if e.n_records == 0 {
            return false;
        }
        if let Some(w) = &self.intervals {
            if !e.overlaps_intervals(w.start, w.end) {
                return false;
            }
        }
        if let Some(run) = self.run {
            if !e.may_contain_run(run.0) {
                return false;
            }
        }
        if let Some(t) = self.tenant {
            if !e.may_contain_tenant(t) {
                return false;
            }
        }
        match self.shape {
            Shape::All => true,
            Shape::Samples => e.kinds.has_samples(),
            Shape::Events(mask) => e.kinds.intersects(mask),
        }
    }

    /// True when `rec` itself matches every constraint.
    // dasr-lint: no-alloc
    pub fn matches_record(&self, rec: &StoredRecord) -> bool {
        if let Some(w) = &self.intervals {
            let i = rec.interval();
            if i < w.start || i >= w.end {
                return false;
            }
        }
        if let Some(run) = self.run {
            if rec.run != run {
                return false;
            }
        }
        if let Some(t) = self.tenant {
            if rec.tenant() != Some(t) {
                return false;
            }
        }
        match (&self.shape, &rec.payload) {
            (Shape::All, _) => true,
            (Shape::Samples, RecordPayload::Sample(_)) => true,
            (Shape::Samples, RecordPayload::Event(_)) => false,
            (Shape::Events(mask), RecordPayload::Event(ev)) => mask & (1 << etag_of(&ev.kind)) != 0,
            (Shape::Events(_), RecordPayload::Sample(_)) => false,
        }
    }
}

/// Where entry `i`'s batch frame lies in its segment: `(offset, length)`.
fn frame_of(idx: &SegmentIndex, i: usize) -> Result<(u64, usize), String> {
    idx.frame(i)
        .ok_or_else(|| format!("index entry {i} describes no batch frame"))
}

/// Seeks to a batch frame and reads exactly its `len` bytes into the
/// caller's reusable buffer; the frame is then `buf[..]`.
fn read_frame(file: &mut File, offset: u64, len: usize, buf: &mut Vec<u8>) -> Result<(), String> {
    buf.resize(len, 0);
    file.seek(SeekFrom::Start(offset))
        .map_err(|e| format!("seek to batch at offset {offset} failed: {e}"))?;
    file.read_exact(buf)
        .map_err(|e| format!("read of batch at offset {offset} failed: {e}"))
}

/// Per-worker scratch of the segment fold, reused across batches *and*
/// segments.
#[derive(Default)]
struct FoldScratch {
    /// Frame bytes: one batch (sparse read) or the whole segment (dense).
    buf: Vec<u8>,
    /// Entries of the current segment that must be read and decoded.
    todo: Vec<usize>,
    /// Record decoder, reset at each batch.
    decoder: BatchDecoder,
}

/// Streams one segment's matching records into `fold(acc, &record)`.
///
/// Every batch `query.matches_entry` admits is first offered to
/// `answer(acc, entry)`: a `true` means the index entry alone answered
/// the batch (e.g. its fire tally was added to `acc`) and it is never
/// read. The rest are read through the caller's reusable scratch with
/// one of two strategies, picked per segment from the share of batches
/// that survived: when at least half do, the whole segment is read in
/// one sequential pass (one syscall, frames sliced out of the buffer);
/// a sparse match seeks to each surviving frame instead, so a narrow
/// query never pays for the batches it pruned.
fn fold_segment<T, A, F>(
    dir: &Path,
    idx: &SegmentIndex,
    query: &Query,
    acc: &mut T,
    answer: &A,
    fold: &F,
    scratch: &mut FoldScratch,
) -> Result<(), String>
where
    A: Fn(&mut T, &IndexEntry) -> bool,
    F: Fn(&mut T, &StoredRecord),
{
    let FoldScratch { buf, todo, decoder } = scratch;
    todo.clear();
    for (i, entry) in idx.entries.iter().enumerate() {
        if query.matches_entry(entry) && !answer(acc, entry) {
            todo.push(i);
        }
    }
    if todo.is_empty() {
        return Ok(());
    }
    let mut file = File::open(dir.join(segment::file_name(idx.segment_id)))
        .map_err(|e| format!("open failed: {e}"))?;
    let dense = todo.len() * 2 >= idx.entries.len();
    if dense {
        buf.clear();
        file.read_to_end(buf)
            .map_err(|e| format!("read failed: {e}"))?;
    }
    for &i in todo.iter() {
        let (offset, len) = frame_of(idx, i)?;
        let frame = if dense {
            usize::try_from(offset)
                .ok()
                .and_then(|at| buf.get(at..at.checked_add(len)?))
                .ok_or_else(|| {
                    format!(
                        "batch at offset {offset} runs past the file ({} bytes)",
                        buf.len()
                    )
                })?
        } else {
            read_frame(&mut file, offset, len, buf)?;
            buf.as_slice()
        };
        Batch::parse_exact(frame, offset)?
            .visit_with(decoder, |rec| {
                if query.matches_record(rec) {
                    fold(acc, rec);
                }
            })
            .map_err(|e| format!("batch at offset {offset}: {e}"))?;
    }
    Ok(())
}

/// Runs `query` over every segment, folding matching records into one
/// accumulator per segment (`make` builds each; `answer` may settle a
/// batch from its index entry alone, see [`fold_segment`]), and returns
/// the partials **in segment id order** — so any associative combine the
/// caller does is independent of thread count.
///
/// Segments whose entries all fail the batch check are skipped without
/// opening their files; the rest fan out over up to `threads` workers,
/// one segment per shard, each worker with its own read buffer.
pub(crate) fn fold_records<T, M, A, F>(
    dir: &Path,
    indices: &[SegmentIndex],
    query: &Query,
    threads: usize,
    make: M,
    answer: A,
    fold: F,
) -> Result<Vec<T>, StoreError>
where
    T: Send,
    M: Fn() -> T + Sync,
    A: Fn(&mut T, &IndexEntry) -> bool + Sync,
    F: Fn(&mut T, &StoredRecord) + Sync,
{
    let work: Vec<&SegmentIndex> = indices
        .iter()
        .filter(|idx| idx.entries.iter().any(|e| query.matches_entry(e)))
        .collect();
    let mut partials = Vec::with_capacity(work.len());
    ordered_shards(
        work.len(),
        threads,
        work.len(),
        FoldScratch::default,
        |scratch, range| {
            (work.get(range).into_iter().flatten())
                .map(|idx| {
                    let mut acc = make();
                    fold_segment(dir, idx, query, &mut acc, &answer, &fold, scratch)
                        .map(|()| acc)
                        .map_err(|e| format!("segment {}: {e}", segment::file_name(idx.segment_id)))
                })
                .collect::<Vec<_>>()
        },
        |part| partials.extend(part),
    );
    partials
        .into_iter()
        .map(|r| r.map_err(StoreError::Corrupt))
        .collect()
}

/// True when every record a batch described by `e` could contribute to
/// the query is *provably* admitted — the interval window contains the
/// batch's whole bounding box and the run filter (if any) is pinned by
/// `min_run == max_run`. For such a batch an index-side tally IS the
/// answer, so the batch need never be read.
// dasr-lint: no-alloc
pub(crate) fn entry_fully_covered(query: &Query, e: &IndexEntry) -> bool {
    query.tenant.is_none()
        && query
            .intervals
            .as_ref()
            .is_none_or(|w| w.start <= e.min_interval && e.max_interval < w.end)
        && query
            .run
            .is_none_or(|r| e.min_run == e.max_run && e.min_run == r.0)
}

/// A lazy, pull-based record stream over a store snapshot: decodes one
/// record per [`next`](Iterator::next) call from a single reusable
/// batch buffer, skipping batches the query's index check rejects.
///
/// Obtained from [`Store::cursor`](crate::Store::cursor). Yields
/// matching records in append order (segment order, then file order).
/// The first decode or I/O error is yielded as `Err` and ends the
/// stream; results reflect everything flushed before the cursor was
/// created.
pub struct RecordCursor {
    dir: PathBuf,
    query: Query,
    indices: Vec<SegmentIndex>,
    /// Position in `indices`.
    seg: usize,
    /// Next entry to consider within the current segment.
    entry: usize,
    /// Open handle for the current segment (dropped at each boundary).
    file: Option<File>,
    /// Reusable frame buffer — the cursor's only per-batch storage.
    buf: Vec<u8>,
    decoder: BatchDecoder,
    /// Payload byte length of the loaded batch (payload = `buf[8..8+len]`).
    payload_len: usize,
    /// Decode position within the payload.
    at: usize,
    /// Records left to decode in the loaded batch.
    remaining: u32,
    /// Set after yielding an error; the stream is over.
    failed: bool,
}

impl RecordCursor {
    pub(crate) fn new(dir: PathBuf, indices: Vec<SegmentIndex>, query: Query) -> Self {
        Self {
            dir,
            query,
            indices,
            seg: 0,
            entry: 0,
            file: None,
            buf: Vec::new(),
            decoder: BatchDecoder::new(),
            payload_len: 0,
            at: 0,
            remaining: 0,
            failed: false,
        }
    }

    /// Loads the next batch that survives the index check into the
    /// reusable buffer. `Ok(false)` means the store is exhausted.
    fn load_next_batch(&mut self) -> Result<bool, String> {
        loop {
            let Some(idx) = self.indices.get(self.seg) else {
                return Ok(false);
            };
            while self.entry < idx.entries.len() {
                let i = self.entry;
                self.entry += 1;
                if !self.query.matches_entry(&idx.entries[i]) {
                    continue;
                }
                let name = || segment::file_name(idx.segment_id);
                let file = match self.file.as_mut() {
                    Some(f) => f,
                    None => self.file.insert(
                        File::open(self.dir.join(name()))
                            .map_err(|e| format!("segment {} open failed: {e}", name()))?,
                    ),
                };
                let batch = frame_of(idx, i)
                    .and_then(|(offset, len)| {
                        read_frame(file, offset, len, &mut self.buf)?;
                        Batch::parse_exact(&self.buf, offset)
                    })
                    .map_err(|e| format!("segment {}: {e}", name()))?;
                self.payload_len = batch.payload.len();
                self.remaining = batch.n_records;
                self.at = 0;
                self.decoder.reset();
                return Ok(true);
            }
            self.seg += 1;
            self.entry = 0;
            self.file = None;
        }
    }

    /// Decodes the next record of the loaded batch.
    fn decode_one(&mut self) -> Result<StoredRecord, String> {
        let payload = &self.buf[8..8 + self.payload_len];
        let mut c = Cursor::new(&payload[self.at..]);
        let rec = self.decoder.decode_next(&mut c)?;
        self.at += c.pos();
        self.remaining -= 1;
        if self.remaining == 0 && self.at != self.payload_len {
            return Err(format!(
                "batch payload has {} trailing bytes after its promised records",
                self.payload_len - self.at
            ));
        }
        Ok(rec)
    }
}

impl Iterator for RecordCursor {
    type Item = Result<StoredRecord, StoreError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed {
            return None;
        }
        loop {
            while self.remaining > 0 {
                match self.decode_one() {
                    Ok(rec) => {
                        if self.query.matches_record(&rec) {
                            return Some(Ok(rec));
                        }
                    }
                    Err(e) => {
                        self.failed = true;
                        return Some(Err(StoreError::Corrupt(e)));
                    }
                }
            }
            match self.load_next_batch() {
                Ok(true) => {}
                Ok(false) => return None,
                Err(e) => {
                    self.failed = true;
                    return Some(Err(StoreError::Corrupt(e)));
                }
            }
        }
    }
}
