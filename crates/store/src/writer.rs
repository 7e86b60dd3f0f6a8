//! The store writer: batch-buffered, deterministically framed appends,
//! made on the appending thread.
//!
//! All writes to a store go through one [`WriterState`] behind the mutex
//! that the store and every sink share ([`AppendHandle`]). An append
//! encodes its record into the open batch under that lock; the batch is
//! framed and written when it holds [`WriterConfig::batch_records`]
//! records or at an explicit [`flush`](AppendHandle::flush) / shutdown —
//! **never** on a timer. Batch boundaries (and therefore the bytes on
//! disk) are a pure function of the append sequence and the explicit
//! flush points, so two runs of the same deterministic workload produce
//! byte-identical segments; DESIGN.md §16 spells out the argument.
//!
//! The state owns the active segment file and the in-memory
//! [`SegmentIndex`] of every segment. Rollover happens when a batch write
//! pushes the active segment past [`WriterConfig::segment_max_bytes`]:
//! the segment is sealed (its `.idx` sidecar written) and the next
//! numbered segment is created. A flush returns a [`WriterSnapshot`] —
//! the full index set — which is how the query side sees fresh data. It
//! rewrites the active sidecar only if a frame was written since the
//! sidecar last was, so queries on an idle store touch no file.
//!
//! I/O errors are sticky: the first failure is kept, subsequent appends
//! are dropped, and every later flush reports the original error. A panic
//! while the lock is held may leave half a record in the open batch, so a
//! poisoned lock fails every later append and flush with
//! [`StoreError::Backend`]. Otherwise an append fails only with
//! [`StoreError::Closed`], once the store has shut down.

use std::borrow::Cow;
use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard};

use crate::codec::BatchEncoder;
use crate::index::{IndexEntry, SegmentIndex};
use crate::record::StoredRecord;
use crate::segment;
use crate::StoreError;

/// Flush-policy knobs for the store writer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriterConfig {
    /// Records per batch: a batch is flushed to disk when it reaches this
    /// many records (or at an explicit flush, whichever comes first).
    pub batch_records: usize,
    /// Segment size bound in bytes: the segment is sealed and the next one
    /// opened once a batch write reaches this length. A bound, not an
    /// exact size — the final batch is never split.
    pub segment_max_bytes: u64,
}

impl Default for WriterConfig {
    fn default() -> Self {
        Self {
            batch_records: 256,
            segment_max_bytes: 4 * 1024 * 1024,
        }
    }
}

/// A consistent view of the store's segments at one flush point: every
/// segment's index (file order, active segment last) with all buffered
/// records written out.
#[derive(Debug, Clone)]
pub struct WriterSnapshot {
    /// Index of every segment, ordered by segment id; the last one is the
    /// active (appendable) segment.
    pub indices: Vec<SegmentIndex>,
}

impl WriterSnapshot {
    /// Total store payload records across all segments.
    pub fn records(&self) -> u64 {
        self.indices.iter().map(SegmentIndex::records).sum()
    }

    /// Total segment bytes across all segments.
    pub fn bytes(&self) -> u64 {
        self.indices.iter().map(|i| i.seg_bytes).sum()
    }
}

/// A cheap, `Send` handle on the store's writer — what
/// [`StoreSink`](crate::StoreSink) holds so event streams can write while
/// the `Store` itself stays borrowable for queries. Every clone shares one
/// writer state, and records reach it in the order appends take its lock.
/// The owning [`Store`](crate::Store) drives shutdown.
#[derive(Clone)]
pub struct AppendHandle {
    state: Arc<Mutex<WriterState>>,
}

impl AppendHandle {
    /// Opens the writer over a recovered store directory.
    ///
    /// `indices` must hold one entry per existing segment in id order; the
    /// last is the active segment, already truncated to its recovered
    /// length — the writer opens it in append mode and continues from
    /// there. [`Store::open`](crate::Store::open) refuses a directory
    /// holding a segment of any other record format before opening the
    /// writer, so every segment it appends to is one it can read back.
    pub(crate) fn open(
        dir: PathBuf,
        cfg: WriterConfig,
        mut indices: Vec<SegmentIndex>,
    ) -> std::io::Result<Self> {
        let active = indices.pop().expect("at least the active segment");
        let file = OpenOptions::new()
            .append(true)
            .open(dir.join(segment::file_name(active.segment_id)))?;
        let state = WriterState {
            dir,
            cfg,
            file,
            sealed: indices,
            active,
            batch_payload: Vec::new(),
            batch_entry: IndexEntry::empty(0),
            frame_buf: Vec::new(),
            encoder: BatchEncoder::new(),
            // The active segment's sidecar is written at the first flush.
            sidecar_stale: true,
            closed: false,
            error: None,
        };
        Ok(Self {
            state: Arc::new(Mutex::new(state)),
        })
    }

    // dasr-lint: no-alloc
    fn lock(&self) -> Result<MutexGuard<'_, WriterState>, StoreError> {
        self.state
            .lock()
            .map_err(|_| StoreError::Backend(Cow::Borrowed("a panic interrupted the store writer")))
    }

    /// Encodes one record into the open batch, and writes the batch once
    /// it holds `batch_records` records. Fails `Closed` once the store has
    /// shut down; a write error surfaces at the next flush.
    // dasr-lint: no-alloc
    pub fn append(&self, rec: StoredRecord) -> Result<(), StoreError> {
        self.lock()?.append(&rec)
    }

    /// Writes the open batch and returns the post-flush snapshot.
    pub fn flush(&self) -> Result<WriterSnapshot, StoreError> {
        self.lock()?.flush()
    }

    /// Flushes, then closes the writer: every later append or flush, on
    /// any handle, fails `Closed`.
    pub(crate) fn shutdown(&self) -> Result<WriterSnapshot, StoreError> {
        let mut state = self.lock()?;
        let flushed = state.flush();
        state.closed = true;
        flushed
    }
}

struct WriterState {
    dir: PathBuf,
    cfg: WriterConfig,
    file: File,
    /// Every sealed segment's index, id order.
    sealed: Vec<SegmentIndex>,
    /// The index of the active segment, the one `file` appends to.
    active: SegmentIndex,
    /// Encoded records of the open (unwritten) batch.
    batch_payload: Vec<u8>,
    /// Bounding box of the open batch.
    batch_entry: IndexEntry,
    /// Reusable frame buffer for batch writes.
    frame_buf: Vec<u8>,
    /// Batch encoder; reset at every batch boundary.
    encoder: BatchEncoder,
    /// A frame was written (maybe rolling the segment) since the active
    /// sidecar last was; a flush with this clear writes nothing.
    sidecar_stale: bool,
    /// Set by shutdown; every later append or flush fails `Closed`.
    closed: bool,
    /// Sticky first I/O error; set once, reported on every later flush.
    error: Option<String>,
}

impl WriterState {
    /// Buffers one record; writes the batch when it fills. The hot path:
    /// encoding appends into the reusable batch buffer, no per-record
    /// allocation.
    // dasr-lint: no-alloc
    fn append(&mut self, rec: &StoredRecord) -> Result<(), StoreError> {
        if self.closed {
            return Err(StoreError::Closed);
        }
        if self.error.is_some() {
            return Ok(());
        }
        if self.batch_entry.n_records == 0 {
            self.batch_entry = IndexEntry::empty(self.active.seg_bytes);
        }
        self.encoder.encode_into(rec, &mut self.batch_payload);
        self.batch_entry.absorb(rec);
        if self.batch_entry.n_records as usize >= self.cfg.batch_records {
            // dasr-lint: allow(G2) reason="batch boundary: flush_batch allocates only on the cold write-error branch and at segment rolls, amortized over batch_records appends"
            self.flush_batch();
        }
        Ok(())
    }

    /// Frames and writes the open batch; seals the segment when it passes
    /// the size bound.
    fn flush_batch(&mut self) {
        if self.error.is_some() || self.batch_entry.n_records == 0 {
            return;
        }
        self.frame_buf.clear();
        segment::append_batch(
            &mut self.frame_buf,
            self.batch_entry.n_records,
            &self.batch_payload,
        );
        if let Err(e) = self.file.write_all(&self.frame_buf) {
            self.error = Some(format!("batch write failed: {e}"));
            return;
        }
        self.sidecar_stale = true;
        self.active.seg_bytes += self.frame_buf.len() as u64;
        self.active.entries.push(self.batch_entry);
        self.batch_payload.clear();
        self.batch_entry = IndexEntry::empty(0);
        self.encoder.reset();
        if self.active.seg_bytes >= self.cfg.segment_max_bytes {
            self.seal_and_roll();
        }
    }

    /// Seals the active segment (writes its `.idx` sidecar) and opens the
    /// next one, whose sidecar the next flush writes.
    fn seal_and_roll(&mut self) {
        if let Err(e) = self.active.write_sidecar(&self.dir) {
            self.error = Some(format!("seal sidecar write failed: {e}"));
            return;
        }
        let next_id = self.active.segment_id + 1;
        let path = self.dir.join(segment::file_name(next_id));
        let mut file = match File::create(&path) {
            Ok(f) => f,
            Err(e) => {
                self.error = Some(format!("segment {next_id} create failed: {e}"));
                return;
            }
        };
        if let Err(e) = file.write_all(&segment::header_bytes(next_id)) {
            self.error = Some(format!("segment {next_id} header write failed: {e}"));
            return;
        }
        self.file = file;
        let sealed = std::mem::replace(&mut self.active, SegmentIndex::fresh(next_id));
        self.sealed.push(sealed);
    }

    /// Explicit flush: write the open batch, refresh the active sidecar if
    /// a frame went out since it was last written (atomic enough for a
    /// cache: a stale or torn sidecar is rebuilt from the segment).
    fn flush(&mut self) -> Result<WriterSnapshot, StoreError> {
        if self.closed {
            return Err(StoreError::Closed);
        }
        self.flush_batch();
        if self.error.is_none() && self.sidecar_stale {
            match self.active.write_sidecar(&self.dir) {
                Ok(()) => self.sidecar_stale = false,
                Err(e) => self.error = Some(format!("sidecar write failed: {e}")),
            }
        }
        match &self.error {
            Some(e) => Err(StoreError::Backend(Cow::Owned(e.clone()))),
            None => {
                let mut indices = Vec::with_capacity(self.sealed.len() + 1);
                indices.extend_from_slice(&self.sealed);
                indices.push(self.active.clone());
                Ok(WriterSnapshot { indices })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{RecordPayload, RunId};
    use crate::store::{RunMeta, Store};
    use dasr_core::obs::{EventKind, EventSink, RunEvent};
    use std::path::Path;

    fn rec(interval: u64) -> StoredRecord {
        StoredRecord {
            run: RunId(0),
            payload: RecordPayload::Event(RunEvent {
                tenant: Some(1),
                interval,
                kind: EventKind::IntervalStart,
            }),
        }
    }

    fn fresh_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dasr-writer-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    fn init_segment(dir: &Path) -> Vec<SegmentIndex> {
        std::fs::write(dir.join(segment::file_name(0)), segment::header_bytes(0))
            .expect("seed segment");
        vec![SegmentIndex::fresh(0)]
    }

    /// Length of segment 0's file.
    fn segment_len(dir: &Path) -> u64 {
        std::fs::metadata(dir.join(segment::file_name(0)))
            .expect("segment")
            .len()
    }

    /// Bytes and modification time of segment 0's `.idx` sidecar.
    fn sidecar(dir: &Path) -> (Vec<u8>, std::time::SystemTime) {
        let path = dir.join(SegmentIndex::file_name(0));
        let mtime = std::fs::metadata(&path)
            .and_then(|m| m.modified())
            .expect("sidecar mtime");
        (std::fs::read(&path).expect("sidecar bytes"), mtime)
    }

    #[test]
    fn idle_flushes_leave_the_sidecar_alone() {
        let dir = fresh_dir("idle");
        let cfg = WriterConfig {
            batch_records: 4,
            ..WriterConfig::default()
        };
        let writer = AppendHandle::open(dir.clone(), cfg, init_segment(&dir)).expect("open");
        for i in 0..10 {
            writer.append(rec(i)).expect("append");
        }
        let first = writer.flush().expect("flush");
        let before = sidecar(&dir);
        // A rewrite after this pause would carry a later mtime.
        std::thread::sleep(std::time::Duration::from_millis(50));
        for _ in 0..20 {
            let snap = writer.flush().expect("idle flush");
            assert_eq!(snap.indices, first.indices);
            assert_eq!(snap.records(), 10);
        }
        assert_eq!(sidecar(&dir), before, "an idle flush rewrites no sidecar");
        drop(writer);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn appends_from_another_thread_between_flushes_are_seen() {
        let dir = fresh_dir("other-thread");
        let cfg = WriterConfig {
            batch_records: 4,
            ..WriterConfig::default()
        };
        let writer = AppendHandle::open(dir.clone(), cfg, init_segment(&dir)).expect("open");
        writer.append(rec(0)).expect("append");
        assert_eq!(writer.flush().expect("flush").records(), 1);
        // Nine appends leave one record in the open batch; eight more
        // leave it empty but write two whole batches: either way the next
        // flush sees every record.
        for (n, want) in [(9, 10), (8, 18)] {
            let handle = writer.clone();
            std::thread::spawn(move || {
                for i in 0..n {
                    handle.append(rec(i)).expect("append");
                }
            })
            .join()
            .expect("appender");
            let snap = writer.flush().expect("flush");
            assert_eq!(snap.records(), want);
        }
        drop(writer);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn an_open_batch_below_the_bound_forces_a_real_flush() {
        let dir = fresh_dir("tail");
        let cfg = WriterConfig {
            batch_records: 4,
            ..WriterConfig::default()
        };
        let writer = AppendHandle::open(dir.clone(), cfg, init_segment(&dir)).expect("open");
        writer.append(rec(0)).expect("append");
        writer.flush().expect("flush");
        let (len, before) = (segment_len(&dir), sidecar(&dir));
        // Two records: below the batch bound, so they wait in the open
        // batch and write nothing until the flush.
        writer.append(rec(1)).expect("append");
        writer.append(rec(2)).expect("append");
        assert_eq!(segment_len(&dir), len);
        let snap = writer.flush().expect("flush");
        assert_eq!(snap.records(), 3);
        assert!(segment_len(&dir) > len, "the flush wrote the open batch");
        assert_ne!(sidecar(&dir).0, before.0, "the sidecar indexes the tail");
        drop(writer);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn a_flush_after_close_is_closed() {
        let dir = fresh_dir("closed");
        let writer = AppendHandle::open(dir.clone(), WriterConfig::default(), init_segment(&dir))
            .expect("open");
        let handle = writer.clone();
        writer.append(rec(0)).expect("append");
        handle.flush().expect("flush");
        handle.flush().expect("idle flush");
        writer.shutdown().expect("shutdown");
        assert!(matches!(handle.flush(), Err(StoreError::Closed)));
        assert!(matches!(writer.flush(), Err(StoreError::Closed)));
        assert!(matches!(handle.append(rec(1)), Err(StoreError::Closed)));
        assert!(matches!(writer.shutdown(), Err(StoreError::Closed)));
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn a_poisoned_writer_fails_every_call_and_writes_nothing() {
        let dir = fresh_dir("poison");
        let cfg = WriterConfig {
            batch_records: 4,
            ..WriterConfig::default()
        };
        let mut store = Store::open_with(&dir, cfg).expect("open");
        let run = store.begin_run(RunMeta::new("auto", "cpuio", "flat", 1));
        let mut sink = store.event_sink(run).expect("sink");
        store.append(run, rec(0).payload).expect("append");
        let before = std::fs::read(dir.join(segment::file_name(0))).expect("segment");
        let state = Arc::clone(&store.writer.state);
        let panicked = std::thread::spawn(move || {
            let _held = state.lock().expect("not yet poisoned");
            panic!("a panic while the writer lock is held");
        })
        .join();
        assert!(panicked.is_err());

        // Enough appends to fill a batch, had the writer taken them.
        for i in 1..=8 {
            let appended = store.append(run, rec(i).payload);
            assert!(
                matches!(appended, Err(StoreError::Backend(_))),
                "{appended:?}"
            );
        }
        assert!(matches!(store.flush(), Err(StoreError::Backend(_))));
        sink.emit(&RunEvent {
            tenant: Some(1),
            interval: 9,
            kind: EventKind::IntervalStart,
        });
        sink.finish();
        assert!(matches!(sink.error(), Some(StoreError::Backend(_))));
        assert!(matches!(store.end_run(run), Err(StoreError::Backend(_))));
        assert!(matches!(store.stats(), Err(StoreError::Backend(_))));
        assert!(matches!(store.close(), Err(StoreError::Backend(_))));

        let after = std::fs::read(dir.join(segment::file_name(0))).expect("segment");
        assert_eq!(after, before, "no byte reached the segment");
        assert!(
            !dir.join(crate::MANIFEST_FILE).exists(),
            "nothing committed"
        );
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn batches_flush_at_the_record_bound() {
        let dir = fresh_dir("batch");
        let cfg = WriterConfig {
            batch_records: 3,
            ..WriterConfig::default()
        };
        let writer = AppendHandle::open(dir.clone(), cfg, init_segment(&dir)).expect("open");
        for i in 0..7 {
            writer.append(rec(i)).expect("append");
        }
        let snap = writer.flush().expect("flush");
        assert_eq!(snap.records(), 7);
        let entries = &snap.indices[0].entries;
        // 3 + 3 from the bound, 1 from the explicit flush.
        assert_eq!(
            entries.iter().map(|e| e.n_records).collect::<Vec<_>>(),
            vec![3, 3, 1]
        );
        let bytes = std::fs::read(dir.join(segment::file_name(0))).expect("read");
        let scan = segment::scan(&bytes).expect("scan");
        assert_eq!(scan.batches.len(), 3);
        assert!(scan.torn.is_none());
        drop(writer);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn segments_roll_at_the_size_bound() {
        let dir = fresh_dir("roll");
        let cfg = WriterConfig {
            batch_records: 4,
            segment_max_bytes: 256,
        };
        let writer = AppendHandle::open(dir.clone(), cfg, init_segment(&dir)).expect("open");
        for i in 0..40 {
            writer.append(rec(i)).expect("append");
        }
        let snap = writer.shutdown().expect("shutdown");
        assert!(snap.indices.len() > 1, "rolled into multiple segments");
        assert_eq!(snap.records(), 40);
        for idx in &snap.indices {
            let seg_path = dir.join(segment::file_name(idx.segment_id));
            let bytes = std::fs::read(&seg_path).expect("segment readable");
            assert_eq!(bytes.len() as u64, idx.seg_bytes);
            let rebuilt = SegmentIndex::build_from_segment(&bytes).expect("rebuilds");
            assert_eq!(&rebuilt, idx, "sidecar-free rebuild matches");
            let sidecar = std::fs::read(dir.join(SegmentIndex::file_name(idx.segment_id)))
                .expect("sidecar written");
            assert_eq!(&SegmentIndex::from_bytes(&sidecar).expect("parses"), idx);
        }
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn flush_is_deterministic_across_identical_append_sequences() {
        let mut contents = Vec::new();
        for round in 0..2 {
            let dir = fresh_dir(&format!("det{round}"));
            let cfg = WriterConfig {
                batch_records: 5,
                segment_max_bytes: 300,
            };
            let writer = AppendHandle::open(dir.clone(), cfg, init_segment(&dir)).expect("open");
            for i in 0..23 {
                writer.append(rec(i * 7)).expect("append");
                if i == 11 {
                    writer.flush().expect("mid flush");
                }
            }
            let snap = writer.shutdown().expect("shutdown");
            let mut bytes = Vec::new();
            for idx in &snap.indices {
                bytes.extend_from_slice(
                    &std::fs::read(dir.join(segment::file_name(idx.segment_id))).expect("read"),
                );
            }
            contents.push(bytes);
            std::fs::remove_dir_all(&dir).expect("cleanup");
        }
        assert_eq!(
            contents[0], contents[1],
            "same append + flush sequence, byte-identical segments"
        );
    }
}
