//! The writer thread: batch-buffered, deterministically framed appends.
//!
//! All writes to a store go through one background thread fed by a
//! channel. Appends first wait in a caller-side staging buffer shared by
//! the store and every sink; it crosses the channel as one message when it
//! holds [`WriterConfig::batch_records`] records or when a
//! [`flush`](StoreWriter::flush) / shutdown arrives. On the writer thread
//! records accumulate in an in-memory batch; the batch is framed and
//! written at the same two points — **never** on a timer. Batch
//! boundaries (and therefore the bytes on disk) are a pure function of the
//! append sequence and the explicit flush points, so two runs of the same
//! deterministic workload produce byte-identical segments; DESIGN.md §16
//! spells out the argument.
//!
//! The thread owns the active segment file and the in-memory
//! [`SegmentIndex`] of every segment. Rollover happens when a batch write
//! pushes the active segment past [`WriterConfig::segment_max_bytes`]:
//! the segment is sealed (final flush + `.idx` sidecar) and the next
//! numbered segment is created. Flush replies carry a [`WriterSnapshot`]
//! — the full index set — which is how the query side sees fresh data
//! without sharing mutable state.
//!
//! I/O errors are sticky: the first failure is kept, subsequent appends
//! are dropped, and every later flush reports the original error. An
//! append itself fails only with [`StoreError::Closed`], once the writer
//! has shut down.

use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::{mpsc, Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

use crate::codec::BatchEncoder;
use crate::index::{IndexEntry, SegmentIndex};
use crate::record::StoredRecord;
use crate::segment;
use crate::StoreError;

/// Flush-policy knobs for the writer thread.
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
    /// Records appended over the writer's lifetime (this process only).
    pub records_appended: u64,
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

type Ack = mpsc::Sender<Result<WriterSnapshot, String>>;

enum Msg {
    /// Staged records in staging order: a full batch, or the staged tail
    /// just ahead of a flush or shutdown.
    Records(Vec<StoredRecord>),
    Flush(Ack),
    Shutdown(Ack),
}

/// The caller-side staging buffer every append goes through, shared by
/// the [`StoreWriter`] and all its [`AppendHandle`]s. Records wait here
/// until [`WriterConfig::batch_records`] of them are staged or a flush or
/// shutdown arrives, then cross to the writer thread as one message.
/// Staging order is the order appends take the lock, and the writer
/// thread sees records in exactly that order.
struct Staging {
    tx: mpsc::Sender<Msg>,
    records: Vec<StoredRecord>,
    /// Buffers the writer thread has emptied and handed back: a hand-off
    /// swaps one in, so in steady state staging never allocates.
    spare: mpsc::Receiver<Vec<StoredRecord>>,
    batch_records: usize,
    /// Set by shutdown; every later append or flush fails `Closed`.
    closed: bool,
}

impl Staging {
    /// Stages one record; hands the buffer over once it holds a batch.
    // dasr-lint: no-alloc
    fn push(&mut self, rec: StoredRecord) -> Result<(), StoreError> {
        if self.closed {
            return Err(StoreError::Closed);
        }
        self.records.push(rec);
        if self.records.len() >= self.batch_records {
            self.hand_off()?;
        }
        Ok(())
    }

    /// Sends the staged records (if any) to the writer thread.
    // dasr-lint: no-alloc
    fn hand_off(&mut self) -> Result<(), StoreError> {
        if self.records.is_empty() {
            return Ok(());
        }
        let next = self.spare.try_recv().unwrap_or_default();
        let staged = std::mem::replace(&mut self.records, next);
        self.send(Msg::Records(staged))
    }

    /// Hands over the staged records, then `msg` (a flush or shutdown),
    /// so the writer sees the control message after every record staged
    /// before it.
    fn send_after_staged(&mut self, msg: Msg) -> Result<(), StoreError> {
        if self.closed {
            return Err(StoreError::Closed);
        }
        self.hand_off()?;
        self.send(msg)
    }

    // dasr-lint: no-alloc
    fn send(&self, msg: Msg) -> Result<(), StoreError> {
        self.tx.send(msg).map_err(|_| StoreError::Closed)
    }
}

type SharedStaging = Arc<Mutex<Staging>>;

// dasr-lint: no-alloc
fn lock(staging: &SharedStaging) -> MutexGuard<'_, Staging> {
    // A panic while holding the lock leaves the staged records intact.
    staging.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Handle to the writer thread. Cloneable append capability is exposed to
/// sinks via [`AppendHandle`]; the owning [`Store`](crate::Store) drives
/// flush and shutdown.
pub struct StoreWriter {
    handle: AppendHandle,
    thread: Option<JoinHandle<()>>,
}

/// A cheap, `Send` handle that can append records and request flushes —
/// what [`StoreSink`](crate::StoreSink) holds so event streams can write
/// while the `Store` itself stays borrowable for queries.
#[derive(Clone)]
pub struct AppendHandle {
    staging: SharedStaging,
}

impl AppendHandle {
    /// Stages one record for the writer thread. Fails `Closed` once the
    /// store has shut down; a write error surfaces at the next flush.
    // dasr-lint: no-alloc
    pub fn append(&self, rec: StoredRecord) -> Result<(), StoreError> {
        lock(&self.staging).push(rec)
    }

    /// Flushes staged and buffered records to disk and waits for the ack.
    pub fn flush(&self) -> Result<WriterSnapshot, StoreError> {
        let (ack, rx) = mpsc::channel();
        lock(&self.staging).send_after_staged(Msg::Flush(ack))?;
        match rx.recv() {
            Ok(Ok(snap)) => Ok(snap),
            Ok(Err(e)) => Err(StoreError::Backend(e)),
            Err(_) => Err(StoreError::Closed),
        }
    }
}

impl StoreWriter {
    /// Spawns the writer thread over a recovered store directory.
    ///
    /// `indices` must hold one entry per existing segment in id order; the
    /// last is the active segment, already truncated to its recovered
    /// length — the writer opens it in append mode and continues from
    /// there. [`Store::open`](crate::Store::open) refuses a directory
    /// holding a segment of any other record format before spawning the
    /// writer, so every segment it appends to is one it can read back.
    pub fn spawn(
        dir: PathBuf,
        cfg: WriterConfig,
        indices: Vec<SegmentIndex>,
    ) -> std::io::Result<Self> {
        let active = indices.last().expect("at least the active segment");
        let file = OpenOptions::new()
            .append(true)
            .open(dir.join(segment::file_name(active.segment_id)))?;
        let (tx, rx) = mpsc::channel();
        let (spare_tx, spare_rx) = mpsc::channel();
        let mut state = WriterState {
            dir,
            cfg,
            file,
            indices,
            batch_payload: Vec::new(),
            batch_entry: IndexEntry::empty(0),
            frame_buf: Vec::new(),
            encoder: BatchEncoder::new(),
            records_appended: 0,
            error: None,
        };
        let thread = std::thread::Builder::new()
            .name("dasr-store-writer".into())
            .spawn(move || {
                while let Ok(msg) = rx.recv() {
                    match msg {
                        Msg::Records(mut records) => {
                            for rec in &records {
                                state.append(rec);
                            }
                            records.clear();
                            let _ = spare_tx.send(records);
                        }
                        Msg::Flush(ack) => {
                            state.flush_all();
                            let _ = ack.send(state.reply());
                        }
                        Msg::Shutdown(ack) => {
                            state.flush_all();
                            let _ = ack.send(state.reply());
                            return;
                        }
                    }
                }
            })?;
        let staging = Staging {
            tx,
            records: Vec::with_capacity(cfg.batch_records),
            spare: spare_rx,
            batch_records: cfg.batch_records,
            closed: false,
        };
        Ok(Self {
            handle: AppendHandle {
                staging: Arc::new(Mutex::new(staging)),
            },
            thread: Some(thread),
        })
    }

    /// An append/flush handle for sinks.
    pub fn handle(&self) -> AppendHandle {
        self.handle.clone()
    }

    /// Stages one record (durable after the next flush or a full batch).
    // dasr-lint: no-alloc
    pub fn append(&self, rec: StoredRecord) -> Result<(), StoreError> {
        self.handle.append(rec)
    }

    /// Flushes staged and buffered records and returns the post-flush
    /// snapshot.
    pub fn flush(&self) -> Result<WriterSnapshot, StoreError> {
        self.handle.flush()
    }

    /// Flushes, stops the thread, and joins it. Idempotent. Handles that
    /// outlive it fail `Closed` on their next append or flush.
    pub fn shutdown(&mut self) -> Result<Option<WriterSnapshot>, StoreError> {
        let Some(thread) = self.thread.take() else {
            return Ok(None);
        };
        let (ack, rx) = mpsc::channel();
        let sent = {
            let mut staging = lock(&self.handle.staging);
            let sent = staging.send_after_staged(Msg::Shutdown(ack)).is_ok();
            staging.closed = true;
            sent
        };
        let reply = if sent { rx.recv().ok() } else { None };
        let _ = thread.join();
        match reply {
            Some(Ok(snap)) => Ok(Some(snap)),
            Some(Err(e)) => Err(StoreError::Backend(e)),
            None => Err(StoreError::Closed),
        }
    }
}

impl Drop for StoreWriter {
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}

struct WriterState {
    dir: PathBuf,
    cfg: WriterConfig,
    file: File,
    /// Every segment's index, id order; last = active.
    indices: Vec<SegmentIndex>,
    /// Encoded records of the open (unwritten) batch.
    batch_payload: Vec<u8>,
    /// Bounding box of the open batch.
    batch_entry: IndexEntry,
    /// Reusable frame buffer for batch writes.
    frame_buf: Vec<u8>,
    /// Batch encoder; reset at every batch boundary.
    encoder: BatchEncoder,
    records_appended: u64,
    /// Sticky first I/O error; set once, reported on every later flush.
    error: Option<String>,
}

impl WriterState {
    fn active(&mut self) -> &mut SegmentIndex {
        self.indices.last_mut().expect("active segment index")
    }

    /// Buffers one record; flushes the batch when it fills. The hot path:
    /// encoding appends into the reusable batch buffer, no per-record
    /// allocation.
    // dasr-lint: no-alloc
    fn append(&mut self, rec: &StoredRecord) {
        if self.error.is_some() {
            return;
        }
        if self.batch_entry.n_records == 0 {
            self.batch_entry = IndexEntry::empty(self.active().seg_bytes);
        }
        self.encoder.encode_into(rec, &mut self.batch_payload);
        self.batch_entry.absorb(rec);
        self.records_appended += 1;
        if self.batch_entry.n_records as usize >= self.cfg.batch_records {
            // dasr-lint: allow(G2) reason="batch boundary: flush_batch allocates only on the cold write-error branch and at segment rolls, amortized over batch_records appends"
            self.flush_batch();
        }
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
        let frame_len = self.frame_buf.len() as u64;
        let entry = self.batch_entry;
        let active = self.active();
        active.seg_bytes += frame_len;
        active.entries.push(entry);
        self.batch_payload.clear();
        self.batch_entry = IndexEntry::empty(0);
        self.encoder.reset();
        if self.active().seg_bytes >= self.cfg.segment_max_bytes {
            self.seal_and_roll();
        }
    }

    /// Seals the active segment (data flush + `.idx` sidecar) and opens
    /// the next one.
    fn seal_and_roll(&mut self) {
        if let Err(e) = self.file.flush() {
            self.error = Some(format!("seal flush failed: {e}"));
            return;
        }
        if let Err(e) = self.write_sidecar() {
            self.error = Some(format!("seal sidecar write failed: {e}"));
            return;
        }
        let next_id = self.active().segment_id + 1;
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
        self.indices.push(SegmentIndex::fresh(next_id));
    }

    /// Writes the active segment's `.idx` sidecar (atomic enough for a
    /// cache: the sidecar is rebuilt from the segment whenever it is
    /// stale or torn).
    fn write_sidecar(&self) -> std::io::Result<()> {
        let active = self.indices.last().expect("active segment index");
        active.write_sidecar(&self.dir)
    }

    /// Explicit flush: write the open batch, push it to the OS, refresh
    /// the active sidecar.
    fn flush_all(&mut self) {
        self.flush_batch();
        if self.error.is_some() {
            return;
        }
        if let Err(e) = self.file.flush() {
            self.error = Some(format!("flush failed: {e}"));
            return;
        }
        if let Err(e) = self.write_sidecar() {
            self.error = Some(format!("sidecar write failed: {e}"));
        }
    }

    fn reply(&self) -> Result<WriterSnapshot, String> {
        match &self.error {
            Some(e) => Err(e.clone()),
            None => Ok(WriterSnapshot {
                indices: self.indices.clone(),
                records_appended: self.records_appended,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{RecordPayload, RunId};
    use dasr_core::obs::{EventKind, RunEvent};
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

    #[test]
    fn batches_flush_at_the_record_bound() {
        let dir = fresh_dir("batch");
        let cfg = WriterConfig {
            batch_records: 3,
            ..WriterConfig::default()
        };
        let writer = StoreWriter::spawn(dir.clone(), cfg, init_segment(&dir)).expect("spawn");
        for i in 0..7 {
            writer.append(rec(i)).expect("append");
        }
        let snap = writer.flush().expect("flush");
        assert_eq!(snap.records_appended, 7);
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
        let mut writer = StoreWriter::spawn(dir.clone(), cfg, init_segment(&dir)).expect("spawn");
        for i in 0..40 {
            writer.append(rec(i)).expect("append");
        }
        let snap = writer.shutdown().expect("shutdown").expect("snapshot");
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
            let mut writer =
                StoreWriter::spawn(dir.clone(), cfg, init_segment(&dir)).expect("spawn");
            for i in 0..23 {
                writer.append(rec(i * 7)).expect("append");
                if i == 11 {
                    writer.flush().expect("mid flush");
                }
            }
            let snap = writer.shutdown().expect("shutdown").expect("snapshot");
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
