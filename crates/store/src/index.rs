//! Sparse per-segment time index.
//!
//! One [`IndexEntry`] per batch: the batch's file offset plus the
//! *bounding box* of what it contains — interval range and run-id range.
//! The index is sparse (batch granularity, not record granularity) because
//! fleet event streams are tenant-major: intervals are **not** monotone
//! within a segment, so a query cannot binary-search; it can, however,
//! skip every batch whose bounding box misses the query, which is the
//! scan-cost win (`store_scan` benches measure it).
//!
//! The index is a pure *cache*: it lives in a `.idx` sidecar next to its
//! segment and is rebuilt from the segment bytes whenever it is missing,
//! fails its CRC, lays its frames out inconsistently, or describes a
//! different byte length than the recovered segment (a crash can tear
//! the sidecar just like the log — rebuilding is always safe because the
//! segment is the single source of truth).
//!
//! Beyond the bounding boxes, each entry carries two *content filters*
//! so the common queries can skip batches without touching segment
//! bytes at all:
//!
//! - [`TenantFilter`] — a 64-bit hashed tenant-presence filter (one bit
//!   per tenant via SplitMix64). `tenant_events` skips any batch whose
//!   filter lacks the queried tenant's bit; false positives only cost a
//!   decode, never correctness.
//! - [`KindSet`] — a per-etag event-kind bitmap plus a has-samples bit.
//!   `fire_counts` skips batches holding nothing it counts; `run_samples`
//!   skips all-event batches.
//! - [`FireTally`] — per-batch rule-fire counters, one slot per counted
//!   event shape. A batch the query's window and run filter admit *in
//!   full* is answered by summing its tally — `fire_counts` over a whole
//!   run never reads a single segment byte.
//!
//! Byte layout (little-endian; `docs/STORE_FORMAT.md` §4):
//!
//! ```text
//! index  := magic "DASRIDX\x02" | segment_id u32 | n_entries u32
//!           | seg_bytes u64 | seg_version u16 | reserved u16×3
//!           | entry* | crc32(entries) u32
//! entry  := offset u64 | n_records u32 | min_interval u64 | max_interval u64
//!           | min_run u32 | max_run u32 | tenant_filter u64
//!           | kinds u16 | fires u32×9                          (82 bytes)
//! ```
//!
//! (The PR-8 sidecar magic was `DASRIDX\x01` with 36-byte entries; those
//! sidecars simply fail the magic check and are rebuilt from their
//! segment — the sidecar is a cache, so the upgrade is self-healing.)

use crate::codec::BatchDecoder;
use crate::crc::crc32;
use crate::record::{etag, etag_of, RecordPayload, StoredRecord};
use crate::segment;
use dasr_core::obs::{BalloonPhase, DenyReason, EventKind};

/// First eight bytes of every index sidecar.
pub const MAGIC: [u8; 8] = *b"DASRIDX\x02";
/// Index header length in bytes.
pub const HEADER_LEN: usize = 32;
/// Encoded size of one [`IndexEntry`].
pub const ENTRY_LEN: usize = 82;

/// SplitMix64 finalizer — the fixed, seedless bit mixer behind
/// [`TenantFilter`]. Deterministic by construction: the same tenant id
/// always hashes to the same bit on every platform.
// dasr-lint: no-alloc
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A 64-bit hashed tenant-presence filter: bit `splitmix64(t) % 64` is
/// set for every tenant `t` stamped on a record in the batch. A clear
/// bit proves absence; a set bit only permits presence (one-in-64 false
/// positives per absent tenant are the price of eight bytes per batch).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TenantFilter(pub u64);

impl TenantFilter {
    /// Adds `tenant`'s bit (un-stamped records leave the filter alone —
    /// tenant queries never match them).
    // dasr-lint: no-alloc
    pub fn stamp(&mut self, tenant: Option<u64>) {
        if let Some(t) = tenant {
            self.0 |= 1u64 << (splitmix64(t) & 63);
        }
    }

    /// False when the batch provably holds no record of `tenant`.
    // dasr-lint: no-alloc
    pub fn may_contain(self, tenant: u64) -> bool {
        self.0 & (1u64 << (splitmix64(tenant) & 63)) != 0
    }
}

/// A bitmap of what record shapes a batch holds: one bit per event tag
/// (`1 << etag`, tags 0..=6) plus [`Self::SAMPLES`] for telemetry
/// samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KindSet(pub u16);

impl KindSet {
    /// Bit set when the batch holds any [`RecordPayload::Sample`].
    pub const SAMPLES: u16 = 1 << 15;
    /// Mask covering every event-tag bit.
    pub const ALL_EVENTS: u16 = (1 << etag::COUNT) - 1;

    /// Adds `rec`'s shape to the set.
    // dasr-lint: no-alloc
    pub fn stamp(&mut self, rec: &StoredRecord) {
        match &rec.payload {
            RecordPayload::Event(ev) => self.0 |= 1 << etag_of(&ev.kind),
            RecordPayload::Sample(_) => self.0 |= Self::SAMPLES,
        }
    }

    /// True when the batch may hold an event whose tag bit is in `mask`.
    // dasr-lint: no-alloc
    pub fn intersects(self, mask: u16) -> bool {
        self.0 & mask != 0
    }

    /// True when the batch may hold telemetry samples.
    // dasr-lint: no-alloc
    pub fn has_samples(self) -> bool {
        self.0 & Self::SAMPLES != 0
    }
}

/// Per-batch rule-fire counters, one `u32` slot per event shape that
/// `FireCounts::record` counts, in the same order `FireCounts` lists
/// its fields (the slot order is part of the sidecar wire format):
///
/// ```text
/// 0 interval_starts   1 resizes_issued    2 denied_cooldown
/// 3 denied_budget     4 budget_throttles  5 balloon_started
/// 6 balloon_aborted   7 balloon_confirmed 8 slo_violations
/// ```
///
/// `IntervalEnd` events and samples tally nothing, mirroring what the
/// decode path would count. A `u32` per slot cannot overflow: a batch
/// holds at most `n_records` (itself a `u32`) events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FireTally(pub [u32; Self::SLOTS]);

impl FireTally {
    /// Number of counter slots.
    pub const SLOTS: usize = 9;

    /// Tallies one event (exactly the events `FireCounts::record` counts).
    // dasr-lint: no-alloc
    pub fn stamp(&mut self, kind: &EventKind) {
        let slot = match kind {
            EventKind::IntervalStart => 0,
            EventKind::IntervalEnd { .. } => return,
            EventKind::ResizeIssued { .. } => 1,
            EventKind::ResizeDenied {
                reason: DenyReason::Cooldown,
            } => 2,
            EventKind::ResizeDenied {
                reason: DenyReason::Budget,
            } => 3,
            EventKind::BudgetThrottle { .. } => 4,
            EventKind::BalloonTrigger {
                phase: BalloonPhase::Started,
                ..
            } => 5,
            EventKind::BalloonTrigger {
                phase: BalloonPhase::Aborted,
                ..
            } => 6,
            EventKind::BalloonTrigger {
                phase: BalloonPhase::Confirmed,
                ..
            } => 7,
            EventKind::SloViolation { .. } => 8,
        };
        self.0[slot] += 1;
    }
}

/// One batch's bounding box in the sparse index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexEntry {
    /// File offset of the batch header inside the segment.
    pub offset: u64,
    /// Records in the batch.
    pub n_records: u32,
    /// Smallest billing interval of any record in the batch.
    pub min_interval: u64,
    /// Largest billing interval of any record in the batch.
    pub max_interval: u64,
    /// Smallest run id of any record in the batch.
    pub min_run: u32,
    /// Largest run id of any record in the batch.
    pub max_run: u32,
    /// Hashed presence filter over the batch's tenant stamps.
    pub tenant_filter: TenantFilter,
    /// Bitmap of the record shapes (event tags / samples) present.
    pub kinds: KindSet,
    /// Rule-fire counters over the batch's events — lets fully-covered
    /// batches answer `fire_counts` without being read at all.
    pub fires: FireTally,
}

impl IndexEntry {
    /// Bounding box of `records` (which must be non-empty) at `offset`.
    pub fn from_records(offset: u64, records: &[StoredRecord]) -> Self {
        debug_assert!(!records.is_empty(), "batches are never empty");
        let mut e = Self::empty(offset);
        for r in records {
            e.absorb(r);
        }
        e
    }

    /// Starts a bounding box at `offset` with no records yet.
    pub fn empty(offset: u64) -> Self {
        Self {
            offset,
            n_records: 0,
            min_interval: u64::MAX,
            max_interval: 0,
            min_run: u32::MAX,
            max_run: 0,
            tenant_filter: TenantFilter::default(),
            kinds: KindSet::default(),
            fires: FireTally::default(),
        }
    }

    /// Widens the box (and content filters) to cover `rec`.
    // dasr-lint: no-alloc
    pub fn absorb(&mut self, rec: &StoredRecord) {
        let interval = rec.interval();
        self.n_records += 1;
        self.min_interval = self.min_interval.min(interval);
        self.max_interval = self.max_interval.max(interval);
        self.min_run = self.min_run.min(rec.run.0);
        self.max_run = self.max_run.max(rec.run.0);
        self.tenant_filter.stamp(rec.tenant());
        self.kinds.stamp(rec);
        if let RecordPayload::Event(ev) = &rec.payload {
            self.fires.stamp(&ev.kind);
        }
    }

    /// True when the batch may hold intervals in `[start, end)`.
    // dasr-lint: no-alloc
    pub fn overlaps_intervals(&self, start: u64, end: u64) -> bool {
        self.n_records > 0 && self.min_interval < end && self.max_interval >= start
    }

    /// True when the batch may hold records of `run`.
    // dasr-lint: no-alloc
    pub fn may_contain_run(&self, run: u32) -> bool {
        self.n_records > 0 && self.min_run <= run && self.max_run >= run
    }

    /// True when the batch may hold records of `tenant`.
    // dasr-lint: no-alloc
    pub fn may_contain_tenant(&self, tenant: u64) -> bool {
        self.n_records > 0 && self.tenant_filter.may_contain(tenant)
    }
}

/// The sparse index of one segment: an [`IndexEntry`] per batch, in file
/// order, stamped with the segment byte length it describes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentIndex {
    /// The segment this index describes.
    pub segment_id: u32,
    /// Segment byte length the entries cover (staleness check: a sidecar
    /// whose `seg_bytes` differs from the recovered segment is rebuilt).
    pub seg_bytes: u64,
    /// One entry per batch, in file order.
    pub entries: Vec<IndexEntry>,
}

impl SegmentIndex {
    /// File name of segment `id`'s sidecar (`seg-000042.idx`).
    pub fn file_name(id: u32) -> String {
        format!("seg-{id:06}.idx")
    }

    /// An empty index for a fresh (header-only) segment.
    pub fn fresh(segment_id: u32) -> Self {
        Self {
            segment_id,
            seg_bytes: segment::HEADER_LEN as u64,
            entries: Vec::new(),
        }
    }

    /// Writes this index as its segment's `.idx` sidecar in `dir`.
    pub fn write_sidecar(&self, dir: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(dir.join(Self::file_name(self.segment_id)), self.to_bytes())
    }

    /// Records in the segment, summed over the entries.
    pub fn records(&self) -> u64 {
        self.entries.iter().map(|e| u64::from(e.n_records)).sum()
    }

    /// Largest run id any entry has seen (`None` for an empty segment) —
    /// recovery uses this as the run-id high-water mark without decoding
    /// a single record.
    pub fn max_run(&self) -> Option<u32> {
        self.entries
            .iter()
            .filter(|e| e.n_records > 0)
            .map(|e| e.max_run)
            .max()
    }

    /// Serializes the sidecar bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        // The CRC covers the entries, so they are laid out first.
        let mut entries = Vec::with_capacity(self.entries.len() * ENTRY_LEN);
        for e in &self.entries {
            entries.extend_from_slice(&e.offset.to_le_bytes());
            entries.extend_from_slice(&e.n_records.to_le_bytes());
            entries.extend_from_slice(&e.min_interval.to_le_bytes());
            entries.extend_from_slice(&e.max_interval.to_le_bytes());
            entries.extend_from_slice(&e.min_run.to_le_bytes());
            entries.extend_from_slice(&e.max_run.to_le_bytes());
            entries.extend_from_slice(&e.tenant_filter.0.to_le_bytes());
            entries.extend_from_slice(&e.kinds.0.to_le_bytes());
            for slot in e.fires.0 {
                entries.extend_from_slice(&slot.to_le_bytes());
            }
        }
        let mut out = Vec::with_capacity(HEADER_LEN + entries.len() + 4);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&self.segment_id.to_le_bytes());
        out.extend_from_slice(&(self.entries.len() as u32).to_le_bytes());
        out.extend_from_slice(&self.seg_bytes.to_le_bytes());
        out.extend_from_slice(&segment::VERSION.to_le_bytes());
        out.extend_from_slice(&[0u8; 6]);
        out.extend_from_slice(&entries);
        out.extend_from_slice(&crc32(&entries).to_le_bytes());
        out
    }

    /// Parses a sidecar; any inconsistency is an error (the caller then
    /// rebuilds from the segment). A CRC only proves the bytes are the
    /// ones that were written, so the frame layout is validated too
    /// (`check_layout`): readers compute frame
    /// lengths by subtracting neighbouring offsets and must never be
    /// handed a sidecar where that underflows.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, String> {
        if bytes.len() < HEADER_LEN + 4 {
            return Err("index sidecar truncated".to_string());
        }
        if bytes[..8] != MAGIC {
            return Err("bad index magic".to_string());
        }
        let segment_id = u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]);
        let n_entries = u32::from_le_bytes([bytes[12], bytes[13], bytes[14], bytes[15]]) as usize;
        let seg_bytes = u64::from_le_bytes([
            bytes[16], bytes[17], bytes[18], bytes[19], bytes[20], bytes[21], bytes[22], bytes[23],
        ]);
        segment::check_version(u16::from_le_bytes([bytes[24], bytes[25]]))?;
        let body_len = n_entries * ENTRY_LEN;
        if bytes.len() != HEADER_LEN + body_len + 4 {
            return Err(format!(
                "index sidecar length {} does not match {n_entries} entries",
                bytes.len()
            ));
        }
        let body = &bytes[HEADER_LEN..HEADER_LEN + body_len];
        let stored_crc = u32::from_le_bytes([
            bytes[HEADER_LEN + body_len],
            bytes[HEADER_LEN + body_len + 1],
            bytes[HEADER_LEN + body_len + 2],
            bytes[HEADER_LEN + body_len + 3],
        ]);
        let actual = crc32(body);
        if stored_crc != actual {
            return Err(format!(
                "index sidecar fails CRC: stored {stored_crc:08x}, computed {actual:08x}"
            ));
        }
        let mut entries = Vec::with_capacity(n_entries);
        for chunk in body.chunks_exact(ENTRY_LEN) {
            let u64_at = |at: usize| {
                let mut a = [0u8; 8];
                a.copy_from_slice(&chunk[at..at + 8]);
                u64::from_le_bytes(a)
            };
            let u32_at = |at: usize| {
                let mut a = [0u8; 4];
                a.copy_from_slice(&chunk[at..at + 4]);
                u32::from_le_bytes(a)
            };
            let mut fires = FireTally::default();
            for (slot, v) in fires.0.iter_mut().enumerate() {
                *v = u32_at(46 + slot * 4);
            }
            entries.push(IndexEntry {
                offset: u64_at(0),
                n_records: u32_at(8),
                min_interval: u64_at(12),
                max_interval: u64_at(20),
                min_run: u32_at(28),
                max_run: u32_at(32),
                tenant_filter: TenantFilter(u64_at(36)),
                kinds: KindSet(u16::from_le_bytes([chunk[44], chunk[45]])),
                fires,
            });
        }
        let idx = Self {
            segment_id,
            seg_bytes,
            entries,
        };
        idx.check_layout()?;
        Ok(idx)
    }

    /// The byte range entry `i`'s batch frame occupies in the segment:
    /// frames are contiguous in file order, so it runs to the next
    /// entry's offset (or the segment's end). `None` when `i` is out of
    /// range or the offsets are not increasing.
    // dasr-lint: no-alloc
    pub fn frame(&self, i: usize) -> Option<(u64, usize)> {
        let offset = self.entries.get(i)?.offset;
        let end = self
            .entries
            .get(i + 1)
            .map_or(self.seg_bytes, |next| next.offset);
        Some((offset, usize::try_from(end.checked_sub(offset)?).ok()?))
    }

    /// Checks that the entries tile the segment: the first frame starts
    /// right after the header, each frame is at least a batch's overhead
    /// long, offsets strictly increase, and the last frame ends at
    /// `seg_bytes`.
    fn check_layout(&self) -> Result<(), String> {
        let first = self.entries.first().map_or(self.seg_bytes, |e| e.offset);
        if first != segment::HEADER_LEN as u64 {
            return Err(format!(
                "index sidecar starts its frames at byte {first}, not right after the header"
            ));
        }
        for i in 0..self.entries.len() {
            if self
                .frame(i)
                .is_none_or(|(_, len)| len < segment::BATCH_OVERHEAD)
            {
                return Err(format!(
                    "index sidecar entry {i} does not describe a batch frame inside {} segment bytes",
                    self.seg_bytes
                ));
            }
        }
        Ok(())
    }

    /// Rebuilds the index by scanning (and fully decoding) the segment
    /// bytes — the fallback when the sidecar is missing or untrustworthy.
    pub fn build_from_segment(bytes: &[u8]) -> Result<Self, String> {
        let scan = segment::scan(bytes)?;
        let mut entries = Vec::with_capacity(scan.batches.len());
        let mut decoder = BatchDecoder::new();
        for batch in &scan.batches {
            let mut entry = IndexEntry::empty(batch.offset);
            batch
                .visit_with(&mut decoder, |rec| entry.absorb(rec))
                .map_err(|e| format!("batch at offset {}: {e}", batch.offset))?;
            entries.push(entry);
        }
        Ok(Self {
            segment_id: scan.segment_id,
            seg_bytes: scan.valid_len,
            entries,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{RecordPayload, RunId};
    use dasr_core::obs::{EventKind, RunEvent};

    fn rec(run: u32, interval: u64) -> StoredRecord {
        StoredRecord {
            run: RunId(run),
            payload: RecordPayload::Event(RunEvent {
                tenant: None,
                interval,
                kind: EventKind::IntervalStart,
            }),
        }
    }

    #[test]
    fn bounding_boxes_and_overlap() {
        let e = IndexEntry::from_records(16, &[rec(1, 10), rec(3, 50), rec(2, 30)]);
        assert_eq!(e.n_records, 3);
        assert_eq!((e.min_interval, e.max_interval), (10, 50));
        assert_eq!((e.min_run, e.max_run), (1, 3));
        assert!(e.overlaps_intervals(0, 11));
        assert!(e.overlaps_intervals(50, 51));
        assert!(!e.overlaps_intervals(0, 10));
        assert!(!e.overlaps_intervals(51, 100));
        assert!(e.may_contain_run(2));
        assert!(!e.may_contain_run(4));
        assert!(!IndexEntry::empty(0).overlaps_intervals(0, u64::MAX));
    }

    #[test]
    fn tenant_filter_proves_absence_without_false_negatives() {
        let mut e = IndexEntry::empty(16);
        for t in [0u64, 7, 1_000_000] {
            e.absorb(&StoredRecord {
                run: RunId(0),
                payload: RecordPayload::Event(RunEvent {
                    tenant: Some(t),
                    interval: 1,
                    kind: EventKind::IntervalStart,
                }),
            });
        }
        // Stamped tenants must always pass (no false negatives).
        for t in [0u64, 7, 1_000_000] {
            assert!(e.may_contain_tenant(t), "tenant {t}");
        }
        // With 3 of 64 bits set, *some* absent tenant must fail the
        // filter — find one deterministically.
        let miss = (0..1000u64).find(|t| !e.may_contain_tenant(*t));
        assert!(miss.is_some(), "filter never prunes anything");
        // An un-stamped record contributes nothing.
        let mut blank = IndexEntry::empty(0);
        blank.absorb(&StoredRecord {
            run: RunId(0),
            payload: RecordPayload::Event(RunEvent {
                tenant: None,
                interval: 1,
                kind: EventKind::IntervalStart,
            }),
        });
        assert_eq!(blank.tenant_filter, TenantFilter(0));
    }

    #[test]
    fn kind_set_tracks_event_tags_and_samples() {
        let mut e = IndexEntry::empty(16);
        e.absorb(&rec(0, 1)); // IntervalStart
        assert!(e.kinds.intersects(1 << etag::INTERVAL_START));
        assert!(!e.kinds.intersects(1 << etag::BUDGET_THROTTLE));
        assert!(!e.kinds.has_samples());
        assert!(e.kinds.intersects(KindSet::ALL_EVENTS));
    }

    #[test]
    fn fire_tally_slot_mapping_and_round_trip() {
        // One event per counted shape (some twice), exercising every
        // tally slot plus the two no-count shapes.
        let ev = |kind: EventKind| StoredRecord {
            run: RunId(0),
            payload: RecordPayload::Event(RunEvent {
                tenant: None,
                interval: 1,
                kind,
            }),
        };
        let mut e = IndexEntry::empty(16);
        e.absorb(&ev(EventKind::IntervalStart));
        e.absorb(&ev(EventKind::IntervalEnd {
            latency_ms: Some(2.0),
            completed: 5,
            rejected: 0,
        }));
        e.absorb(&ev(EventKind::ResizeIssued {
            from_rung: 0,
            to_rung: 1,
        }));
        e.absorb(&ev(EventKind::ResizeDenied {
            reason: DenyReason::Cooldown,
        }));
        e.absorb(&ev(EventKind::ResizeDenied {
            reason: DenyReason::Budget,
        }));
        e.absorb(&ev(EventKind::ResizeDenied {
            reason: DenyReason::Budget,
        }));
        e.absorb(&ev(EventKind::BudgetThrottle { headroom_pct: 1.0 }));
        e.absorb(&ev(EventKind::BalloonTrigger {
            phase: BalloonPhase::Started,
            target_mb: Some(64.0),
        }));
        e.absorb(&ev(EventKind::BalloonTrigger {
            phase: BalloonPhase::Aborted,
            target_mb: None,
        }));
        e.absorb(&ev(EventKind::BalloonTrigger {
            phase: BalloonPhase::Confirmed,
            target_mb: Some(64.0),
        }));
        e.absorb(&ev(EventKind::SloViolation {
            observed_ms: 9.0,
            goal_ms: 5.0,
        }));
        // IntervalEnd tallies nothing; every other slot as documented.
        assert_eq!(e.fires, FireTally([1, 1, 1, 2, 1, 1, 1, 1, 1]));
        assert_eq!(e.n_records, 11);

        // The tally survives the sidecar wire format.
        let idx = SegmentIndex {
            segment_id: 3,
            seg_bytes: 999,
            entries: vec![e],
        };
        let parsed = SegmentIndex::from_bytes(&idx.to_bytes()).expect("parse");
        assert_eq!(parsed, idx);
    }

    #[test]
    fn sidecar_round_trips() {
        let idx = SegmentIndex {
            segment_id: 3,
            seg_bytes: 4096,
            entries: vec![
                IndexEntry::from_records(16, &[rec(0, 5)]),
                IndexEntry::from_records(80, &[rec(1, 7), rec(1, 9)]),
            ],
        };
        let bytes = idx.to_bytes();
        let back = SegmentIndex::from_bytes(&bytes).expect("parses");
        assert_eq!(back, idx);
        assert_eq!(back.records(), 3);
        assert_eq!(back.max_run(), Some(1));
        assert_eq!(SegmentIndex::fresh(9).max_run(), None);
    }

    #[test]
    fn corrupt_sidecars_are_rejected() {
        let idx = SegmentIndex {
            segment_id: 1,
            seg_bytes: 100,
            entries: vec![IndexEntry::from_records(16, &[rec(0, 1)])],
        };
        let bytes = idx.to_bytes();
        assert!(SegmentIndex::from_bytes(&bytes[..10]).is_err());
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(SegmentIndex::from_bytes(&bad).is_err());
        let mut bad = bytes.clone();
        bad[HEADER_LEN + 2] ^= 1; // entry byte: CRC must catch it
        assert!(SegmentIndex::from_bytes(&bad).is_err());
        let mut bad = bytes;
        bad.truncate(bad.len() - 1);
        assert!(SegmentIndex::from_bytes(&bad).is_err());
        // A sidecar of the older layout (`DASRIDX\x01` magic) fails the
        // magic check → rebuilt.
        let mut old = idx.to_bytes();
        old[7] = 0x01;
        assert!(SegmentIndex::from_bytes(&old)
            .expect_err("old magic")
            .contains("magic"));
        // The CRC covers the entries only, so a sidecar naming a segment
        // version this build does not read stays CRC-valid: the version
        // check alone refuses it, and recovery reads the segment itself.
        let mut v1 = idx.to_bytes();
        v1[24] = 1;
        assert_eq!(
            SegmentIndex::from_bytes(&v1).expect_err("v1 sidecar"),
            "unsupported segment version 1"
        );
    }

    #[test]
    fn crc_valid_sidecars_with_impossible_layouts_are_rejected() {
        let good = SegmentIndex {
            segment_id: 1,
            seg_bytes: 200,
            entries: vec![
                IndexEntry::from_records(16, &[rec(0, 1)]),
                IndexEntry::from_records(60, &[rec(0, 2)]),
                IndexEntry::from_records(130, &[rec(0, 3)]),
            ],
        };
        assert_eq!(
            SegmentIndex::from_bytes(&good.to_bytes()).expect("tiles"),
            good
        );
        assert_eq!(good.frame(1), Some((60, 70)));
        assert_eq!(good.frame(2), Some((130, 70)));
        assert_eq!(good.frame(3), None);
        // Each of these re-encodes with a valid CRC; only the layout
        // check can tell they describe no possible segment.
        type Damage = fn(&mut SegmentIndex);
        let hostile: [(&str, Damage); 5] = [
            ("swapped offsets", |i| i.entries.swap(1, 2)),
            ("starts inside the header", |i| i.entries[0].offset = 8),
            ("starts past the header", |i| i.entries[0].offset = 20),
            ("frame under the overhead", |i| i.entries[2].offset = 65),
            ("runs past the segment", |i| i.seg_bytes = 135),
        ];
        for (what, damage) in hostile {
            let mut bad = good.clone();
            damage(&mut bad);
            assert!(
                SegmentIndex::from_bytes(&bad.to_bytes()).is_err(),
                "{what} must not parse"
            );
        }
        // An empty index is only consistent with a header-only segment.
        let mut empty = SegmentIndex::fresh(4);
        assert!(SegmentIndex::from_bytes(&empty.to_bytes()).is_ok());
        empty.seg_bytes += 1;
        assert!(SegmentIndex::from_bytes(&empty.to_bytes()).is_err());
    }

    #[test]
    fn rebuild_matches_incremental_construction() {
        let mut seg = segment::header_bytes(5).to_vec();
        let recs = [rec(0, 3), rec(0, 8), rec(1, 1)];
        let mut payload = Vec::new();
        let mut enc = crate::codec::BatchEncoder::new();
        for r in &recs {
            enc.encode_into(r, &mut payload);
        }
        segment::append_batch(&mut seg, recs.len() as u32, &payload);
        let rebuilt = SegmentIndex::build_from_segment(&seg).expect("rebuilds");
        assert_eq!(rebuilt.segment_id, 5);
        assert_eq!(rebuilt.seg_bytes, seg.len() as u64);
        assert_eq!(rebuilt.entries, vec![IndexEntry::from_records(16, &recs)]);
    }
}
