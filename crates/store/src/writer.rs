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
//! without sharing mutable state. A flush with nothing to do (nothing
//! staged, no message sent since the last `Ok` reply) is answered from
//! that reply on the caller's side, so queries on an idle store never
//! wait for the writer thread (DESIGN.md §16).
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
    /// Messages sent (or attempted) to the writer thread so far.
    sent: u64,
    /// The last `Ok` flush reply, with the value `sent` had once that
    /// flush was sent. The writer thread changes state only while it
    /// handles a message, so while `sent` still reads that value and
    /// nothing is staged, the reply still describes the store.
    last_flush: Option<(u64, Arc<WriterSnapshot>)>,
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
    fn send(&mut self, msg: Msg) -> Result<(), StoreError> {
        self.sent += 1;
        self.tx.send(msg).map_err(|_| StoreError::Closed)
    }

    /// The last flush reply, if a flush now would find nothing to do:
    /// nothing staged and no message sent since. A closed store never
    /// qualifies: shutdown sends a message of its own (or counts the one
    /// it failed to send) before it sets `closed`.
    fn idle_snapshot(&self) -> Option<Arc<WriterSnapshot>> {
        match &self.last_flush {
            Some((at, snap)) if *at == self.sent && self.records.is_empty() => {
                Some(Arc::clone(snap))
            }
            _ => None,
        }
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
    ///
    /// A flush with nothing to do — nothing staged and no message sent
    /// since the last `Ok` reply — returns a copy of that reply without
    /// a round trip to the writer thread, so a run of queries on an idle
    /// store costs no sidecar rewrite. An `Err` reply is never kept: a
    /// store that failed reports its error at every flush.
    pub fn flush(&self) -> Result<WriterSnapshot, StoreError> {
        let (ack, rx) = mpsc::channel();
        let at = {
            let mut staging = lock(&self.staging);
            if let Some(snap) = staging.idle_snapshot() {
                drop(staging);
                return Ok(WriterSnapshot::clone(&snap));
            }
            staging.send_after_staged(Msg::Flush(ack))?;
            staging.sent
        };
        match rx.recv() {
            Ok(Ok(snap)) => {
                // A reply kept out of order, behind a later flush's, is
                // only older: its count no longer matches, so it is
                // never returned.
                let snap = Arc::new(snap);
                lock(&self.staging).last_flush = Some((at, Arc::clone(&snap)));
                Ok(WriterSnapshot::clone(&snap))
            }
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
            sent: 0,
            last_flush: None,
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

    /// Messages the writer's staging has sent so far.
    fn sent(writer: &StoreWriter) -> u64 {
        lock(&writer.handle.staging).sent
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
    fn idle_flushes_send_nothing_and_leave_the_sidecar_alone() {
        let dir = fresh_dir("idle");
        let cfg = WriterConfig {
            batch_records: 4,
            ..WriterConfig::default()
        };
        let writer = StoreWriter::spawn(dir.clone(), cfg, init_segment(&dir)).expect("spawn");
        for i in 0..10 {
            writer.append(rec(i)).expect("append");
        }
        let first = writer.flush().expect("flush");
        let (messages, before) = (sent(&writer), sidecar(&dir));
        // A rewrite after this pause would carry a later mtime.
        std::thread::sleep(std::time::Duration::from_millis(50));
        for _ in 0..20 {
            let snap = writer.flush().expect("idle flush");
            assert_eq!(snap.indices, first.indices);
            assert_eq!(snap.records_appended, 10);
        }
        assert_eq!(sent(&writer), messages, "an idle flush sends no message");
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
        let writer = StoreWriter::spawn(dir.clone(), cfg, init_segment(&dir)).expect("spawn");
        writer.append(rec(0)).expect("append");
        assert_eq!(writer.flush().expect("flush").records(), 1);
        // Nine appends leave one staged; eight more leave none staged but
        // hand two whole batches over: either way the next flush is real.
        for (n, want) in [(9, 10), (8, 18)] {
            let handle = writer.handle();
            std::thread::spawn(move || {
                for i in 0..n {
                    handle.append(rec(i)).expect("append");
                }
            })
            .join()
            .expect("appender");
            let snap = writer.flush().expect("flush");
            assert_eq!((snap.records(), snap.records_appended), (want, want));
        }
        drop(writer);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn a_staged_tail_below_the_batch_forces_a_real_flush() {
        let dir = fresh_dir("tail");
        let cfg = WriterConfig {
            batch_records: 4,
            ..WriterConfig::default()
        };
        let writer = StoreWriter::spawn(dir.clone(), cfg, init_segment(&dir)).expect("spawn");
        writer.append(rec(0)).expect("append");
        writer.flush().expect("flush");
        let (messages, before) = (sent(&writer), sidecar(&dir));
        // Two records: below the batch size, so they wait in staging and
        // send nothing until the flush.
        writer.append(rec(1)).expect("append");
        writer.append(rec(2)).expect("append");
        assert_eq!(sent(&writer), messages);
        let snap = writer.flush().expect("flush");
        assert_eq!(snap.records(), 3);
        assert_eq!(sent(&writer), messages + 2, "records, then the flush");
        assert_ne!(sidecar(&dir).0, before.0, "the sidecar indexes the tail");
        drop(writer);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn a_flush_after_close_is_closed_even_with_a_kept_reply() {
        let dir = fresh_dir("closed");
        let mut writer =
            StoreWriter::spawn(dir.clone(), WriterConfig::default(), init_segment(&dir))
                .expect("spawn");
        let handle = writer.handle();
        writer.append(rec(0)).expect("append");
        handle.flush().expect("flush");
        handle.flush().expect("idle flush");
        writer.shutdown().expect("shutdown");
        assert!(matches!(handle.flush(), Err(StoreError::Closed)));
        assert!(matches!(writer.flush(), Err(StoreError::Closed)));
        std::fs::remove_dir_all(&dir).expect("cleanup");
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
