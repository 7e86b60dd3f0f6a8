//! [`Store`]: the durable run store — open/recover, append, commit runs,
//! query back.
//!
//! A store is one directory:
//!
//! ```text
//! store/
//!   manifest.jsonl     run catalog: one committed run per line
//!   seg-000000.dseg    segment 0 (sealed)
//!   seg-000000.idx     its sparse index sidecar
//!   seg-000001.dseg    segment 1 (active, appendable)
//!   seg-000001.idx     its sidecar (refreshed at every flush)
//! ```
//!
//! **Commit protocol.** Records append through the writer thread into the
//! active segment; a run becomes *committed* when [`Store::end_run`]
//! flushes the writer and appends the run's manifest line. Recovery honors
//! exactly that order: torn segment tails are truncated to the last intact
//! batch, a torn manifest tail line is dropped, and run ids of
//! uncommitted records are never reused (the sparse index doubles as a
//! run-id high-water mark), so a crash leaves at worst an orphaned —
//! never a corrupted or aliased — run.
//!
//! **Queries.** Every query first flushes the writer (so results include
//! all appends that happened-before the call), then runs a [`Query`]
//! through the cursor layer: only batches whose index entry — interval
//! bounding box, run range, tenant-presence filter, kind bitmap — may
//! match are read or decoded, segments fan out across
//! [`read_threads`](Store::read_threads) workers, and per-segment
//! partials fold back in segment order, so results are in append order
//! and byte-identical at any thread count. [`Store::cursor`] exposes the
//! same machinery as a lazy iterator with O(batch) memory.

use std::collections::BTreeMap;
use std::fs::{self, OpenOptions};
use std::io::Write as _;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::cursor::{self, Query, RecordCursor, Shape};
use crate::index::{FireTally, IndexEntry, KindSet, SegmentIndex};
use crate::record::{etag, RecordPayload, RunId, StoredRecord};
use crate::segment;
use crate::sink::StoreSink;
use crate::writer::{StoreWriter, WriterConfig, WriterSnapshot};
use dasr_core::json::{self, Json};
use dasr_core::obs::{BalloonPhase, DenyReason, EventKind, RunEvent};
use dasr_core::replay::{RecordingHeader, RunRecording, SampleRecord};

/// The run-catalog file name inside a store directory.
pub const MANIFEST_FILE: &str = "manifest.jsonl";

/// Everything that can go wrong talking to a store.
#[derive(Debug)]
pub enum StoreError {
    /// An I/O operation failed (open, read, truncate, manifest write).
    Io(std::io::Error),
    /// The writer thread hit an I/O error earlier; appends since then were
    /// dropped and the original failure is reported here.
    Backend(String),
    /// On-disk bytes that recovery cannot explain as a torn tail.
    Corrupt(String),
    /// The run id is not open (for appends) or not committed (for reads).
    UnknownRun(RunId),
    /// The writer thread is gone (the store was closed).
    Closed,
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "store I/O error: {e}"),
            Self::Backend(e) => write!(f, "store writer failed: {e}"),
            Self::Corrupt(e) => write!(f, "store corrupt: {e}"),
            Self::UnknownRun(run) => write!(f, "unknown run {run}"),
            Self::Closed => write!(f, "store writer is closed"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

/// Caller-supplied metadata describing a run, recorded in the manifest
/// and replayed back as a [`RecordingHeader`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunMeta {
    /// Policy that produced the run.
    pub policy: String,
    /// Workload name.
    pub workload: String,
    /// Demand-trace name.
    pub trace: String,
    /// Base seed (for fleets: the fleet seed the per-tenant SplitMix64
    /// streams derive from).
    pub seed: u64,
    /// Tenants in the run.
    pub tenants: u64,
    /// Billing intervals per tenant.
    pub intervals: u64,
}

impl RunMeta {
    /// Metadata for a single-tenant run.
    pub fn new(policy: &str, workload: &str, trace: &str, seed: u64) -> Self {
        Self {
            policy: policy.to_string(),
            workload: workload.to_string(),
            trace: trace.to_string(),
            seed,
            tenants: 1,
            intervals: 0,
        }
    }

    /// Widens the metadata to a fleet shape.
    #[must_use]
    pub fn fleet(mut self, tenants: u64, intervals: u64) -> Self {
        self.tenants = tenants;
        self.intervals = intervals;
        self
    }

    /// The replay header this metadata reconstructs.
    pub fn header(&self) -> RecordingHeader {
        RecordingHeader {
            policy: self.policy.clone(),
            workload: self.workload.clone(),
            trace: self.trace.clone(),
            seed: self.seed,
        }
    }
}

/// One committed run in the catalog: caller metadata plus what the store
/// counted on the way in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunManifest {
    /// The run's id within this store.
    pub run: RunId,
    /// Caller-supplied metadata.
    pub meta: RunMeta,
    /// Sample records committed under this run.
    pub samples: u64,
    /// Event records committed under this run.
    pub events: u64,
}

impl RunManifest {
    /// Serializes the manifest entry as one JSON line (no newline).
    pub fn to_json_line(&self) -> String {
        Json::Obj(vec![
            ("kind".into(), Json::Str("dasr-run".into())),
            ("version".into(), Json::Num(1.0)),
            ("run".into(), Json::Num(f64::from(self.run.0))),
            ("policy".into(), Json::Str(self.meta.policy.clone())),
            ("workload".into(), Json::Str(self.meta.workload.clone())),
            ("trace".into(), Json::Str(self.meta.trace.clone())),
            // Seeds use the full u64 range — ship as text, as recordings do.
            ("seed".into(), Json::Str(self.meta.seed.to_string())),
            ("tenants".into(), Json::Num(self.meta.tenants as f64)),
            ("intervals".into(), Json::Num(self.meta.intervals as f64)),
            ("samples".into(), Json::Num(self.samples as f64)),
            ("events".into(), Json::Num(self.events as f64)),
        ])
        .write()
    }

    /// Parses an entry back from [`RunManifest::to_json_line`] output.
    pub fn from_json_line(line: &str) -> Result<Self, String> {
        let v = json::parse(line)?;
        if v.get("kind")?.str()? != "dasr-run" {
            return Err("not a dasr-run manifest line".into());
        }
        let version: u64 = v.get("version")?.int()?;
        if version != 1 {
            return Err(format!("unsupported manifest version {version}"));
        }
        Ok(Self {
            run: RunId(v.get("run")?.int()?),
            meta: RunMeta {
                policy: v.get("policy")?.str()?.to_string(),
                workload: v.get("workload")?.str()?.to_string(),
                trace: v.get("trace")?.str()?.to_string(),
                seed: v
                    .get("seed")?
                    .str()?
                    .parse::<u64>()
                    .map_err(|e| format!("bad seed: {e}"))?,
                tenants: v.get("tenants")?.int()?,
                intervals: v.get("intervals")?.int()?,
            },
            samples: v.get("samples")?.int()?,
            events: v.get("events")?.int()?,
        })
    }
}

/// Rule-fire totals aggregated from stored event records — the
/// "which rules fired, how often" query over any interval window, one run
/// or the whole store. R1-protected: counts only, rendered at print time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FireCounts {
    /// `IntervalStart` events seen (a normalization denominator).
    pub interval_starts: u64,
    /// Resizes issued.
    pub resizes_issued: u64,
    /// Resizes denied by the cooldown rule.
    pub denied_cooldown: u64,
    /// Resizes denied by the budget rule.
    pub denied_budget: u64,
    /// Budget-throttle fires.
    pub budget_throttles: u64,
    /// Balloon probes started.
    pub balloon_started: u64,
    /// Balloon probes aborted.
    pub balloon_aborted: u64,
    /// Balloon probes confirmed.
    pub balloon_confirmed: u64,
    /// SLO violations observed.
    pub slo_violations: u64,
}

impl FireCounts {
    /// Folds one event into the totals.
    // dasr-lint: no-alloc
    pub fn record(&mut self, kind: &EventKind) {
        match kind {
            EventKind::IntervalStart => self.interval_starts += 1,
            EventKind::IntervalEnd { .. } => {}
            EventKind::ResizeIssued { .. } => self.resizes_issued += 1,
            EventKind::ResizeDenied { reason } => match reason {
                DenyReason::Cooldown => self.denied_cooldown += 1,
                DenyReason::Budget => self.denied_budget += 1,
            },
            EventKind::BudgetThrottle { .. } => self.budget_throttles += 1,
            EventKind::BalloonTrigger { phase, .. } => match phase {
                BalloonPhase::Started => self.balloon_started += 1,
                BalloonPhase::Aborted => self.balloon_aborted += 1,
                BalloonPhase::Confirmed => self.balloon_confirmed += 1,
            },
            EventKind::SloViolation { .. } => self.slo_violations += 1,
        }
    }

    /// Adds one batch's index-side tally — the zero-decode path of
    /// [`Store::fire_counts`]: a batch the query admits in full
    /// contributes its pre-computed counters straight off the sidecar.
    /// Slot order is fixed by [`FireTally`]'s docs.
    pub fn merge_tally(&mut self, t: &FireTally) {
        self.interval_starts += u64::from(t.0[0]);
        self.resizes_issued += u64::from(t.0[1]);
        self.denied_cooldown += u64::from(t.0[2]);
        self.denied_budget += u64::from(t.0[3]);
        self.budget_throttles += u64::from(t.0[4]);
        self.balloon_started += u64::from(t.0[5]);
        self.balloon_aborted += u64::from(t.0[6]);
        self.balloon_confirmed += u64::from(t.0[7]);
        self.slo_violations += u64::from(t.0[8]);
    }

    /// Adds another tally into this one — the exact-sum monoid queries
    /// use to combine per-segment partials (order-independent, so the
    /// parallel fold cannot perturb totals).
    pub fn merge(&mut self, other: &Self) {
        self.interval_starts += other.interval_starts;
        self.resizes_issued += other.resizes_issued;
        self.denied_cooldown += other.denied_cooldown;
        self.denied_budget += other.denied_budget;
        self.budget_throttles += other.budget_throttles;
        self.balloon_started += other.balloon_started;
        self.balloon_aborted += other.balloon_aborted;
        self.balloon_confirmed += other.balloon_confirmed;
        self.slo_violations += other.slo_violations;
    }

    /// Total rule fires (everything except interval bookkeeping).
    pub fn total_fires(&self) -> u64 {
        self.resizes_issued
            + self.denied_cooldown
            + self.denied_budget
            + self.budget_throttles
            + self.balloon_started
            + self.balloon_aborted
            + self.balloon_confirmed
            + self.slo_violations
    }
}

impl std::fmt::Display for FireCounts {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "resizes={} denied(cooldown={}, budget={}) throttles={} \
             balloons(start={}, abort={}, confirm={}) slo={}",
            self.resizes_issued,
            self.denied_cooldown,
            self.denied_budget,
            self.budget_throttles,
            self.balloon_started,
            self.balloon_aborted,
            self.balloon_confirmed,
            self.slo_violations
        )
    }
}

/// Size accounting over the whole store (from the index, no data reads).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreStats {
    /// Segment files.
    pub segments: u64,
    /// Committed batches.
    pub batches: u64,
    /// Records across all batches.
    pub records: u64,
    /// Segment bytes (headers + frames; sidecars and manifest excluded).
    pub bytes: u64,
}

/// One recovery action taken by [`Store::open`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryNote {
    /// The segment acted on (`None` for manifest recovery).
    pub segment: Option<u32>,
    /// What happened, human-readable.
    pub detail: String,
}

struct PendingRun {
    meta: RunMeta,
    samples: u64,
    /// Shared with any [`StoreSink`]s recording into this run.
    events: Arc<AtomicU64>,
}

/// The durable segmented run store. See the [module docs](self) for the
/// directory layout and commit protocol.
pub struct Store {
    dir: PathBuf,
    writer: StoreWriter,
    manifest: Vec<RunManifest>,
    open_runs: BTreeMap<u32, PendingRun>,
    next_run: u32,
    recovery: Vec<RecoveryNote>,
    read_threads: usize,
}

impl Store {
    /// Opens (creating if needed) the store at `dir` with default writer
    /// knobs, running crash recovery first: torn segment tails are
    /// truncated to the last intact batch, stale index sidecars rebuilt,
    /// and a torn manifest tail line dropped — see
    /// [`recovery_notes`](Self::recovery_notes) for what was done.
    ///
    /// A segment whose header names a record format other than
    /// [`segment::VERSION`] is not a torn tail but a file this build
    /// cannot read: opening fails with [`StoreError::Corrupt`] naming the
    /// file, before anything in the directory is written.
    ///
    /// # Examples
    ///
    /// ```
    /// use dasr_store::Store;
    ///
    /// let dir = std::env::temp_dir().join(format!("dasr-doc-open-{}", std::process::id()));
    /// # let _ = std::fs::remove_dir_all(&dir);
    /// let store = Store::open(&dir)?;
    /// assert!(store.runs().is_empty());
    /// assert!(store.recovery_notes().is_empty());
    /// store.close()?;
    /// # std::fs::remove_dir_all(&dir)?;
    /// # Ok::<(), dasr_store::StoreError>(())
    /// ```
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, StoreError> {
        Self::open_with(dir, WriterConfig::default())
    }

    /// [`open`](Self::open) with explicit writer knobs (batch size,
    /// segment size bound).
    pub fn open_with(dir: impl AsRef<Path>, cfg: WriterConfig) -> Result<Self, StoreError> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        let mut notes = Vec::new();
        let indices = recover_segments(&dir, &mut notes)?;
        let manifest = recover_manifest(&dir, &mut notes)?;
        let max_manifest_run = manifest.iter().map(|m| m.run.0).max();
        let max_stored_run = indices.iter().filter_map(SegmentIndex::max_run).max();
        let next_run = match max_manifest_run.max(max_stored_run) {
            None => 0,
            Some(max) => max.checked_add(1).ok_or_else(|| {
                StoreError::Corrupt(format!("run id {max} leaves no id for a new run"))
            })?,
        };
        let writer = StoreWriter::spawn(dir.clone(), cfg, indices)?;
        Ok(Self {
            dir,
            writer,
            manifest,
            open_runs: BTreeMap::new(),
            next_run,
            recovery: notes,
            read_threads: std::thread::available_parallelism().map_or(1, usize::from),
        })
    }

    /// How many worker threads queries fan segments out across.
    pub fn read_threads(&self) -> usize {
        self.read_threads
    }

    /// Sets the query fan-out width (clamped to at least 1). Results are
    /// byte-identical at any setting; this only trades wall-clock for
    /// cores.
    pub fn set_read_threads(&mut self, threads: usize) {
        self.read_threads = threads.max(1);
    }

    /// The store's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// What [`open`](Self::open) had to repair (empty after a clean
    /// shutdown).
    pub fn recovery_notes(&self) -> &[RecoveryNote] {
        &self.recovery
    }

    /// The committed runs, in commit order.
    pub fn runs(&self) -> &[RunManifest] {
        &self.manifest
    }

    /// Opens a new run: assigns the next run id and starts counting its
    /// records. The run appears in [`runs`](Self::runs) only after
    /// [`end_run`](Self::end_run) commits it.
    pub fn begin_run(&mut self, meta: RunMeta) -> RunId {
        let run = RunId(self.next_run);
        self.next_run += 1;
        self.open_runs.insert(
            run.0,
            PendingRun {
                meta,
                samples: 0,
                events: Arc::new(AtomicU64::new(0)),
            },
        );
        run
    }

    /// Appends one record under an open run. Buffered: the record waits in
    /// the caller-side staging buffer, and is durable after the batch
    /// fills, an explicit [`flush`](Self::flush), or the committing
    /// [`end_run`](Self::end_run). A write error surfaces at that flush;
    /// the append itself fails only for an unknown run or a closed store.
    ///
    /// # Examples
    ///
    /// ```
    /// use dasr_core::obs::{EventKind, RunEvent};
    /// use dasr_store::{RecordPayload, RunMeta, Store};
    ///
    /// let dir = std::env::temp_dir().join(format!("dasr-doc-append-{}", std::process::id()));
    /// # let _ = std::fs::remove_dir_all(&dir);
    /// let mut store = Store::open(&dir)?;
    /// let run = store.begin_run(RunMeta::new("static-max", "cpuio", "flat", 7));
    /// store.append(
    ///     run,
    ///     RecordPayload::Event(RunEvent {
    ///         tenant: Some(0),
    ///         interval: 3,
    ///         kind: EventKind::IntervalStart,
    ///     }),
    /// )?;
    /// let committed = store.end_run(run)?;
    /// assert_eq!(committed.events, 1);
    /// store.close()?;
    /// # std::fs::remove_dir_all(&dir)?;
    /// # Ok::<(), dasr_store::StoreError>(())
    /// ```
    // dasr-lint: no-alloc
    pub fn append(&mut self, run: RunId, payload: RecordPayload) -> Result<(), StoreError> {
        let pending = self
            .open_runs
            .get_mut(&run.0)
            .ok_or(StoreError::UnknownRun(run))?;
        match &payload {
            RecordPayload::Sample(_) => pending.samples += 1,
            RecordPayload::Event(_) => {
                pending.events.fetch_add(1, Ordering::Relaxed);
            }
        }
        self.writer.append(StoredRecord { run, payload })
    }

    /// Appends every sample record of `recording` under `run` (the bulk
    /// path for archiving a [`record_run`](dasr_core::replay::record_run)
    /// capture). Records are `Copy`, so the loop moves plain stack
    /// copies into the staging buffer — no per-record heap traffic.
    // dasr-lint: no-alloc
    pub fn append_recording(
        &mut self,
        run: RunId,
        recording: &RunRecording,
    ) -> Result<(), StoreError> {
        for rec in &recording.records {
            self.append(run, RecordPayload::Sample(*rec))?;
        }
        Ok(())
    }

    /// An [`EventSink`](dasr_core::obs::EventSink) that streams a fleet
    /// run's events into `run` — hand it to
    /// [`FleetRunner::run_fleet_summary`](dasr_core::FleetRunner) and the
    /// whole event stream lands in the store without materializing in
    /// memory.
    pub fn event_sink(&self, run: RunId) -> Result<StoreSink, StoreError> {
        let pending = self
            .open_runs
            .get(&run.0)
            .ok_or(StoreError::UnknownRun(run))?;
        Ok(StoreSink::new(
            self.writer.handle(),
            run,
            Arc::clone(&pending.events),
        ))
    }

    /// Commits an open run: flushes every buffered record to disk, then
    /// appends the run's line to `manifest.jsonl` — the commit point.
    pub fn end_run(&mut self, run: RunId) -> Result<RunManifest, StoreError> {
        if !self.open_runs.contains_key(&run.0) {
            return Err(StoreError::UnknownRun(run));
        }
        self.writer.flush()?;
        let pending = self
            .open_runs
            .remove(&run.0)
            .ok_or(StoreError::UnknownRun(run))?;
        let entry = RunManifest {
            run,
            meta: pending.meta,
            samples: pending.samples,
            events: pending.events.load(Ordering::Relaxed),
        };
        let mut file = OpenOptions::new()
            .append(true)
            .create(true)
            .open(self.dir.join(MANIFEST_FILE))?;
        file.write_all(entry.to_json_line().as_bytes())?;
        file.write_all(b"\n")?;
        file.flush()?;
        self.manifest.push(entry.clone());
        Ok(entry)
    }

    /// Flushes buffered records to disk without committing anything.
    pub fn flush(&self) -> Result<(), StoreError> {
        self.writer.flush().map(|_| ())
    }

    /// Flushes, stops the writer thread, and consumes the store. Open
    /// (uncommitted) runs stay orphaned on disk; recovery never confuses
    /// them with committed data.
    pub fn close(mut self) -> Result<(), StoreError> {
        self.writer.shutdown().map(|_| ())
    }

    /// Size accounting from the index — no data reads.
    pub fn stats(&self) -> Result<StoreStats, StoreError> {
        let snap = self.writer.flush()?;
        Ok(StoreStats {
            segments: snap.indices.len() as u64,
            batches: snap.indices.iter().map(|i| i.entries.len() as u64).sum(),
            records: snap.records(),
            bytes: snap.bytes(),
        })
    }

    /// Every stored record whose billing interval falls in `intervals`,
    /// across all runs, in append order. Batches whose index bounding box
    /// misses the range are skipped without being read or decoded.
    ///
    /// # Examples
    ///
    /// ```
    /// use dasr_core::obs::{EventKind, RunEvent};
    /// use dasr_store::{RecordPayload, RunMeta, Store};
    ///
    /// let dir = std::env::temp_dir().join(format!("dasr-doc-scan-{}", std::process::id()));
    /// # let _ = std::fs::remove_dir_all(&dir);
    /// let mut store = Store::open(&dir)?;
    /// let run = store.begin_run(RunMeta::new("auto", "cpuio", "flat", 1));
    /// for interval in 0..6 {
    ///     store.append(
    ///         run,
    ///         RecordPayload::Event(RunEvent {
    ///             tenant: Some(0),
    ///             interval,
    ///             kind: EventKind::IntervalStart,
    ///         }),
    ///     )?;
    /// }
    /// store.end_run(run)?;
    /// let window = store.scan_range(2..4)?;
    /// assert_eq!(window.len(), 2);
    /// assert!(window.iter().all(|r| (2..4).contains(&r.interval())));
    /// store.close()?;
    /// # std::fs::remove_dir_all(&dir)?;
    /// # Ok::<(), dasr_store::StoreError>(())
    /// ```
    // dasr-lint: entry(G3)
    pub fn scan_range(&self, intervals: Range<u64>) -> Result<Vec<StoredRecord>, StoreError> {
        let query = Query {
            intervals: Some(intervals),
            ..Query::default()
        };
        self.collect(&query, |out, rec| out.push(*rec))
    }

    /// Every record of one run, in append order.
    // dasr-lint: entry(G3)
    pub fn run_records(&self, run: RunId) -> Result<Vec<StoredRecord>, StoreError> {
        let query = Query {
            run: Some(run),
            ..Query::default()
        };
        self.collect(&query, |out, rec| out.push(*rec))
    }

    /// A lazy streaming cursor over everything flushed so far that
    /// matches `query`, in append order. Decodes one batch at a time
    /// through a reusable buffer, so memory is O(largest batch)
    /// regardless of how many records match — the right tool for large
    /// exports and one-pass folds where a `Vec` of the result would be
    /// the dominant cost.
    // dasr-lint: entry(G3)
    pub fn cursor(&self, query: Query) -> Result<RecordCursor, StoreError> {
        let snap: WriterSnapshot = self.writer.flush()?;
        Ok(RecordCursor::new(self.dir.clone(), snap.indices, query))
    }

    /// One tenant's event stream within a run, in append order.
    ///
    /// # Examples
    ///
    /// ```
    /// use dasr_core::obs::{EventKind, RunEvent};
    /// use dasr_store::{RecordPayload, RunMeta, Store};
    ///
    /// let dir = std::env::temp_dir().join(format!("dasr-doc-tenant-{}", std::process::id()));
    /// # let _ = std::fs::remove_dir_all(&dir);
    /// let mut store = Store::open(&dir)?;
    /// let run = store.begin_run(RunMeta::new("auto", "cpuio", "flat", 1).fleet(2, 1));
    /// for tenant in [0u64, 1, 0] {
    ///     store.append(
    ///         run,
    ///         RecordPayload::Event(RunEvent {
    ///             tenant: Some(tenant),
    ///             interval: 0,
    ///             kind: EventKind::IntervalStart,
    ///         }),
    ///     )?;
    /// }
    /// store.end_run(run)?;
    /// assert_eq!(store.tenant_events(run, 0)?.len(), 2);
    /// assert_eq!(store.tenant_events(run, 1)?.len(), 1);
    /// store.close()?;
    /// # std::fs::remove_dir_all(&dir)?;
    /// # Ok::<(), dasr_store::StoreError>(())
    /// ```
    // dasr-lint: entry(G3)
    pub fn tenant_events(&self, run: RunId, tenant: u64) -> Result<Vec<RunEvent>, StoreError> {
        let query = Query {
            run: Some(run),
            tenant: Some(tenant),
            shape: Shape::Events(KindSet::ALL_EVENTS),
            ..Query::default()
        };
        self.collect(&query, |out, rec| {
            if let RecordPayload::Event(ev) = &rec.payload {
                out.push(*ev);
            }
        })
    }

    /// One run's sample records (all tenants, or one), in append order.
    // dasr-lint: entry(G3)
    pub fn run_samples(
        &self,
        run: RunId,
        tenant: Option<u64>,
    ) -> Result<Vec<SampleRecord>, StoreError> {
        let query = Query {
            run: Some(run),
            tenant,
            shape: Shape::Samples,
            ..Query::default()
        };
        self.collect(&query, |out, rec| {
            if let RecordPayload::Sample(s) = &rec.payload {
                out.push(*s);
            }
        })
    }

    /// Rule-fire totals over an interval window — one run or (with
    /// `run = None`) aggregated across every run in the store.
    // dasr-lint: entry(G3)
    pub fn fire_counts(
        &self,
        run: Option<RunId>,
        intervals: Range<u64>,
    ) -> Result<FireCounts, StoreError> {
        // `FireCounts::record` ignores `IntervalEnd`, so batches holding
        // only end-of-interval events (or samples) are pruned unread.
        let counted = KindSet::ALL_EVENTS & !(1 << etag::INTERVAL_END);
        // The shape mask must admit everything the index tallies count:
        // a batch the window and run filter cover in full is answered by
        // its per-batch `FireTally` and never read, so a whole-run count
        // is an index walk, not a decode (`store_fire_counts_100k`
        // measures it).
        let query = Query {
            intervals: Some(intervals),
            run,
            shape: Shape::Events(counted),
            ..Query::default()
        };
        let parts = self.fold(
            &query,
            FireCounts::default,
            |counts, entry| {
                let covered = cursor::entry_fully_covered(&query, entry);
                if covered {
                    counts.merge_tally(&entry.fires);
                }
                covered
            },
            |counts, rec| {
                if let RecordPayload::Event(ev) = &rec.payload {
                    counts.record(&ev.kind);
                }
            },
        )?;
        let mut total = FireCounts::default();
        for part in &parts {
            total.merge(part);
        }
        Ok(total)
    }

    /// Reconstructs a committed run (optionally narrowed to one tenant)
    /// as a [`RunRecording`] ready for
    /// [`replay`](dasr_core::replay::replay) — the stored floats are
    /// bit-exact, so the replayed loop sees exactly the samples the live
    /// loop saw.
    pub fn load_recording(
        &self,
        run: RunId,
        tenant: Option<u64>,
    ) -> Result<RunRecording, StoreError> {
        let entry = self
            .manifest
            .iter()
            .find(|m| m.run == run)
            .ok_or(StoreError::UnknownRun(run))?;
        let records = self.run_samples(run, tenant)?;
        Ok(RunRecording {
            header: entry.meta.header(),
            records,
        })
    }

    /// The targeted read path behind every query: flush, prune batches
    /// with the query's index checks, stream survivors through reusable
    /// per-worker buffers, and fold matching records into one
    /// accumulator per segment — segments in parallel across
    /// [`read_threads`](Self::read_threads), partials returned in
    /// segment order so the caller's combine is order-stable.
    fn fold<T, M, A, F>(
        &self,
        query: &Query,
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
        let snap: WriterSnapshot = self.writer.flush()?;
        cursor::fold_records(
            &self.dir,
            &snap.indices,
            query,
            self.read_threads,
            make,
            answer,
            fold,
        )
    }

    /// [`fold`](Self::fold) with `pick` pushing what it wants of every
    /// matching record (no batch is answered from the index); the
    /// per-segment lists are concatenated, so the result is in append order.
    fn collect<R, P>(&self, query: &Query, pick: P) -> Result<Vec<R>, StoreError>
    where
        R: Send,
        P: Fn(&mut Vec<R>, &StoredRecord) + Sync,
    {
        let parts = self.fold(query, Vec::new, |_, _| false, pick)?;
        Ok(parts.into_iter().flatten().collect())
    }
}

/// Scans the store directory's segments, truncating torn tails and
/// rebuilding stale sidecars. Returns one index per segment, id order,
/// active last — the writer resumes from exactly this state.
fn recover_segments(
    dir: &Path,
    notes: &mut Vec<RecoveryNote>,
) -> Result<Vec<SegmentIndex>, StoreError> {
    let mut ids = Vec::new();
    for entry in fs::read_dir(dir)? {
        let name = entry?.file_name();
        if let Some(id) = parse_segment_name(&name.to_string_lossy()) {
            ids.push(id);
        }
    }
    ids.sort_unstable();
    let Some(&last) = ids.last() else {
        return Ok(vec![create_segment(dir, 0)?]);
    };
    let mut indices = Vec::with_capacity(ids.len() + 1);
    for id in ids {
        let path = dir.join(segment::file_name(id));
        let active = id == last;
        if !active {
            // Sealed segment: trust a sidecar that matches the file's
            // length, without reading the segment itself.
            if let Some(idx) = load_sidecar(dir, id, fs::metadata(&path)?.len()) {
                indices.push(idx);
                continue;
            }
        }
        let bytes = fs::read(&path)?;
        if active && bytes.len() < segment::HEADER_LEN {
            // A crash tore the freshly created segment's header write;
            // nothing was committed to it, so start it over.
            indices.push(create_segment(dir, id)?);
            notes.push(RecoveryNote {
                segment: Some(id),
                detail: format!("rewrote torn {}-byte segment header", bytes.len()),
            });
            continue;
        }
        let scan = segment::scan(&bytes)
            .map_err(|e| StoreError::Corrupt(format!("segment {}: {e}", segment::file_name(id))))?;
        if scan.segment_id != id {
            return Err(StoreError::Corrupt(format!(
                "segment file {} has header id {}",
                segment::file_name(id),
                scan.segment_id
            )));
        }
        if let Some(torn) = &scan.torn {
            let file = OpenOptions::new().write(true).open(&path)?;
            file.set_len(scan.valid_len)?;
            notes.push(RecoveryNote {
                segment: Some(id),
                detail: format!(
                    "truncated {} bytes of torn tail ({torn})",
                    bytes.len() as u64 - scan.valid_len
                ),
            });
        }
        let idx = SegmentIndex::build_from_segment(&bytes[..scan.valid_len as usize])
            .map_err(StoreError::Corrupt)?;
        // Repair the sidecar so the next open trusts it again (sealed
        // segments only — the writer refreshes the active one).
        if !active {
            idx.write_sidecar(dir)?;
            notes.push(RecoveryNote {
                segment: Some(id),
                detail: "rebuilt stale index sidecar".to_string(),
            });
        }
        indices.push(idx);
    }
    Ok(indices)
}

/// Writes segment `id` as a header-only file and returns its index.
fn create_segment(dir: &Path, id: u32) -> std::io::Result<SegmentIndex> {
    fs::write(dir.join(segment::file_name(id)), segment::header_bytes(id))?;
    Ok(SegmentIndex::fresh(id))
}

/// Loads segment `id`'s sidecar if it is intact and describes exactly
/// `seg_bytes` bytes.
fn load_sidecar(dir: &Path, id: u32, seg_bytes: u64) -> Option<SegmentIndex> {
    let bytes = fs::read(dir.join(SegmentIndex::file_name(id))).ok()?;
    let idx = SegmentIndex::from_bytes(&bytes).ok()?;
    (idx.segment_id == id && idx.seg_bytes == seg_bytes).then_some(idx)
}

/// Parses `seg-NNNNNN.dseg` file names.
fn parse_segment_name(name: &str) -> Option<u32> {
    let stem = name.strip_prefix("seg-")?.strip_suffix(".dseg")?;
    (stem.len() == 6).then(|| stem.parse().ok()).flatten()
}

/// Loads the run catalog; a torn final line (crash mid-commit) is dropped
/// and the file rewritten without it, any earlier damage is an error.
fn recover_manifest(
    dir: &Path,
    notes: &mut Vec<RecoveryNote>,
) -> Result<Vec<RunManifest>, StoreError> {
    let path = dir.join(MANIFEST_FILE);
    if !path.exists() {
        return Ok(Vec::new());
    }
    let text = fs::read_to_string(&path)?;
    let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
    let mut manifest = Vec::with_capacity(lines.len());
    for (i, line) in lines.iter().enumerate() {
        match RunManifest::from_json_line(line) {
            Ok(entry) => manifest.push(entry),
            Err(e) if i + 1 == lines.len() => {
                let mut clean = String::new();
                for entry in &manifest {
                    clean.push_str(&entry.to_json_line());
                    clean.push('\n');
                }
                fs::write(&path, clean)?;
                notes.push(RecoveryNote {
                    segment: None,
                    detail: format!("dropped torn manifest tail line: {e}"),
                });
            }
            Err(e) => {
                return Err(StoreError::Corrupt(format!("manifest line {}: {e}", i + 1)));
            }
        }
    }
    Ok(manifest)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dasr_core::obs::RunEvent;

    fn fresh_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dasr-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn event(tenant: u64, interval: u64, kind: EventKind) -> RecordPayload {
        RecordPayload::Event(RunEvent {
            tenant: Some(tenant),
            interval,
            kind,
        })
    }

    #[test]
    fn manifest_lines_round_trip() {
        let entry = RunManifest {
            run: RunId(3),
            meta: RunMeta::new("auto", "cpuio", "daily", u64::MAX - 1).fleet(64, 1440),
            samples: 92_160,
            events: 1234,
        };
        let line = entry.to_json_line();
        assert_eq!(RunManifest::from_json_line(&line).expect("parses"), entry);
        assert!(RunManifest::from_json_line("{\"kind\":\"nope\"}").is_err());
    }

    #[test]
    fn hostile_manifest_run_ids_are_corrupt_not_a_panic() {
        let good = RunManifest {
            run: RunId(0),
            meta: RunMeta::new("auto", "cpuio", "flat", 7),
            samples: 0,
            events: 0,
        }
        .to_json_line();
        for (i, run) in ["4294967295", "1e10", "-1", "0.5"].into_iter().enumerate() {
            let hostile = good.replace("\"run\":0", &format!("\"run\":{run}"));
            assert_ne!(hostile, good);
            // An id that does not fit `u32` exactly is rejected by the
            // decoder; the largest one that fits leaves no next id.
            assert_eq!(
                RunManifest::from_json_line(&hostile).is_ok(),
                i == 0,
                "{run}"
            );
            let dir = fresh_dir(&format!("hostile-run-{i}"));
            std::fs::create_dir_all(&dir).expect("mkdir");
            let text = format!("{hostile}\n{good}\n");
            std::fs::write(dir.join(MANIFEST_FILE), &text).expect("manifest");
            let err = Store::open(&dir).err();
            assert!(
                matches!(err, Some(StoreError::Corrupt(_))),
                "{run}: {err:?}"
            );
            let kept = std::fs::read_to_string(dir.join(MANIFEST_FILE)).expect("read");
            assert_eq!(kept, text, "{run}: the manifest is left as it was");
            std::fs::remove_dir_all(&dir).expect("cleanup");
        }
    }

    #[test]
    fn deeply_nested_manifest_line_is_corrupt_not_a_stack_overflow() {
        let good = RunManifest {
            run: RunId(0),
            meta: RunMeta::new("auto", "cpuio", "flat", 7),
            samples: 0,
            events: 0,
        }
        .to_json_line();
        let dir = fresh_dir("hostile-nesting");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let text = format!("{}\n{good}\n", "[".repeat(100_000));
        std::fs::write(dir.join(MANIFEST_FILE), &text).expect("manifest");
        let err = Store::open(&dir).err();
        assert!(matches!(err, Some(StoreError::Corrupt(_))), "{err:?}");
        let kept = std::fs::read_to_string(dir.join(MANIFEST_FILE)).expect("read");
        assert_eq!(kept, text, "the manifest is left as it was");
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn runs_commit_through_the_manifest() {
        let dir = fresh_dir("commit");
        let mut store = Store::open(&dir).expect("open");
        let run = store.begin_run(RunMeta::new("auto", "cpuio", "flat", 7));
        assert!(store.runs().is_empty(), "not committed yet");
        for i in 0..4 {
            store
                .append(run, event(0, i, EventKind::IntervalStart))
                .expect("append");
        }
        let committed = store.end_run(run).expect("commit");
        assert_eq!(committed.events, 4);
        assert_eq!(committed.samples, 0);
        assert_eq!(store.runs().len(), 1);
        // Unknown / double-ended runs are rejected.
        assert!(matches!(store.end_run(run), Err(StoreError::UnknownRun(_))));
        assert!(matches!(
            store.append(run, event(0, 0, EventKind::IntervalStart)),
            Err(StoreError::UnknownRun(_))
        ));
        store.close().expect("close");

        // Reopen: catalog and data both survive.
        let store = Store::open(&dir).expect("reopen");
        assert_eq!(store.runs().len(), 1);
        assert_eq!(store.run_records(run).expect("records").len(), 4);
        store.close().expect("close");
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn run_ids_never_alias_after_a_crash() {
        let dir = fresh_dir("alias");
        let mut store = Store::open(&dir).expect("open");
        let committed = store.begin_run(RunMeta::new("auto", "cpuio", "flat", 1));
        store
            .append(committed, event(0, 0, EventKind::IntervalStart))
            .expect("append");
        store.end_run(committed).expect("commit");
        // An uncommitted run with flushed records: simulates a crash
        // between flush and commit.
        let orphan = store.begin_run(RunMeta::new("auto", "cpuio", "flat", 2));
        store
            .append(orphan, event(0, 0, EventKind::IntervalStart))
            .expect("append");
        store.flush().expect("flush");
        drop(store); // no end_run: the orphan never reaches the manifest

        let mut store = Store::open(&dir).expect("reopen");
        assert_eq!(store.runs().len(), 1, "orphan is not in the catalog");
        let fresh = store.begin_run(RunMeta::new("auto", "cpuio", "flat", 3));
        assert!(
            fresh.0 > orphan.0,
            "recovered id {fresh} must not reuse orphan {orphan}"
        );
        store.close().expect("close");
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn fire_counts_aggregate_by_window_and_run() {
        let dir = fresh_dir("fires");
        let mut store = Store::open(&dir).expect("open");
        let a = store.begin_run(RunMeta::new("auto", "cpuio", "flat", 1));
        store
            .append(
                a,
                event(
                    0,
                    5,
                    EventKind::ResizeIssued {
                        from_rung: 1,
                        to_rung: 2,
                    },
                ),
            )
            .expect("append");
        store
            .append(
                a,
                event(0, 9, EventKind::BudgetThrottle { headroom_pct: 3.0 }),
            )
            .expect("append");
        store.end_run(a).expect("commit");
        let b = store.begin_run(RunMeta::new("util", "cpuio", "flat", 2));
        store
            .append(
                b,
                event(
                    1,
                    5,
                    EventKind::ResizeDenied {
                        reason: DenyReason::Budget,
                    },
                ),
            )
            .expect("append");
        store.end_run(b).expect("commit");

        let all = store.fire_counts(None, 0..100).expect("all");
        assert_eq!(all.resizes_issued, 1);
        assert_eq!(all.budget_throttles, 1);
        assert_eq!(all.denied_budget, 1);
        assert_eq!(all.total_fires(), 3);
        let only_a = store.fire_counts(Some(a), 0..100).expect("run a");
        assert_eq!(only_a.denied_budget, 0);
        assert_eq!(only_a.total_fires(), 2);
        let early = store.fire_counts(None, 0..6).expect("window");
        assert_eq!(early.budget_throttles, 0);
        assert_eq!(early.total_fires(), 2);
        store.close().expect("close");
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn fire_counts_decode_mixed_run_batches() {
        // Interleaved appends from two runs share batches, so
        // `min_run != max_run` defeats the index-tally shortcut: a
        // run-filtered count must fall back to decoding and still be
        // exact (the tally would lump both runs together).
        let dir = fresh_dir("fires-mixed");
        let mut store = Store::open(&dir).expect("open");
        let a = store.begin_run(RunMeta::new("auto", "cpuio", "flat", 1));
        let b = store.begin_run(RunMeta::new("util", "cpuio", "flat", 2));
        for i in 0..10u64 {
            let run = if i % 2 == 0 { a } else { b };
            store
                .append(
                    run,
                    event(
                        0,
                        i,
                        EventKind::ResizeIssued {
                            from_rung: 0,
                            to_rung: 1,
                        },
                    ),
                )
                .expect("append");
        }
        store.end_run(a).expect("commit");
        store.end_run(b).expect("commit");

        let only_a = store.fire_counts(Some(a), 0..u64::MAX).expect("run a");
        assert_eq!(only_a.resizes_issued, 5);
        let only_b = store.fire_counts(Some(b), 0..u64::MAX).expect("run b");
        assert_eq!(only_b.resizes_issued, 5);
        let both = store.fire_counts(None, 0..u64::MAX).expect("all");
        assert_eq!(both.resizes_issued, 10);
        store.close().expect("close");
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn stats_count_segments_batches_records() {
        let dir = fresh_dir("stats");
        // v2 frames pack ~8 events into ~20 payload bytes, so the roll
        // bound must be far smaller than the v1-era 1024 to still force
        // multiple segments out of 100 records.
        let cfg = WriterConfig {
            batch_records: 8,
            segment_max_bytes: 256,
        };
        let mut store = Store::open_with(&dir, cfg).expect("open");
        let run = store.begin_run(RunMeta::new("auto", "cpuio", "flat", 1));
        for i in 0..100 {
            store
                .append(run, event(i % 4, i, EventKind::IntervalStart))
                .expect("append");
        }
        store.end_run(run).expect("commit");
        let stats = store.stats().expect("stats");
        assert_eq!(stats.records, 100);
        assert!(stats.segments > 1, "rolled segments: {stats:?}");
        assert!(stats.batches >= stats.segments);
        // Compact frames: well under v1's ~49 bytes/record, but still
        // real bytes (headers + framing + payloads).
        assert!(stats.bytes > 100, "bytes: {stats:?}");
        assert!(
            stats.bytes < 100 * 40,
            "v2 should beat v1 sizing: {stats:?}"
        );
        store.close().expect("close");
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn torn_manifest_tail_is_dropped_on_reopen() {
        let dir = fresh_dir("manifest-tail");
        let mut store = Store::open(&dir).expect("open");
        let run = store.begin_run(RunMeta::new("auto", "cpuio", "flat", 1));
        store
            .append(run, event(0, 0, EventKind::IntervalStart))
            .expect("append");
        store.end_run(run).expect("commit");
        store.close().expect("close");
        // Tear the manifest: append half a line.
        let path = dir.join(MANIFEST_FILE);
        let mut text = std::fs::read_to_string(&path).expect("read");
        text.push_str("{\"kind\":\"dasr-run\",\"version\":1,\"run\":1,\"pol");
        std::fs::write(&path, text).expect("tear");

        let store = Store::open(&dir).expect("recovers");
        assert_eq!(store.runs().len(), 1);
        assert!(
            store
                .recovery_notes()
                .iter()
                .any(|n| n.detail.contains("manifest")),
            "notes: {:?}",
            store.recovery_notes()
        );
        store.close().expect("close");
        // And the rewrite made the file clean again.
        let store = Store::open(&dir).expect("clean reopen");
        assert!(store.recovery_notes().is_empty());
        store.close().expect("close");
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn load_recording_returns_committed_runs_only() {
        use dasr_telemetry::{ProbeStatus, TelemetrySample};

        let sample = |interval: u64| SampleRecord {
            tenant: Some(0),
            sample: TelemetrySample {
                interval,
                util_pct: [50.0, 10.0, 5.0, 1.0],
                wait_ms: [0.5; 7],
                latency_ms: Some(12.0 + interval as f64),
                avg_latency_ms: Some(11.0),
                completed: 100,
                arrivals: 100,
                rejected: 0,
                mem_used_mb: 512.0,
                mem_capacity_mb: 1024.0,
                disk_reads_per_sec: 3.5,
            },
            probe: ProbeStatus::Inactive,
        };
        let dir = fresh_dir("load-recording");
        let mut store = Store::open(&dir).expect("open");
        let run = store.begin_run(RunMeta::new("auto", "cpuio", "flat", 42));
        for i in 0..3 {
            store
                .append(run, RecordPayload::Sample(sample(i)))
                .expect("append");
        }
        store.end_run(run).expect("commit");
        let open = store.begin_run(RunMeta::new("auto", "cpuio", "flat", 43));
        store
            .append(open, RecordPayload::Sample(sample(0)))
            .expect("append");

        let recording = store.load_recording(run, Some(0)).expect("loads");
        assert_eq!(recording.header.policy, "auto");
        assert_eq!(recording.header.seed, 42);
        assert_eq!(recording.records.len(), 3);
        assert_eq!(recording.records[1], sample(1));

        // Absent or uncommitted runs refuse to load.
        for refused in [RunId(7), open] {
            assert!(matches!(
                store.load_recording(refused, None),
                Err(StoreError::UnknownRun(_))
            ));
        }
        store.close().expect("close");
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn segment_names_parse_strictly() {
        assert_eq!(parse_segment_name("seg-000042.dseg"), Some(42));
        assert_eq!(parse_segment_name("seg-000042.idx"), None);
        assert_eq!(parse_segment_name("seg-42.dseg"), None);
        assert_eq!(parse_segment_name("manifest.jsonl"), None);
    }
}
